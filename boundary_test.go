package repro

import (
	"go/build"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestServingPlaneBoundary pins the line between the paper's two sides. The
// router side — origin validation (internal/rov), the RTR protocol
// (internal/rtr) and the router's client binary — validates the VRPs a cache
// sends it; it must not link the relying party's algorithm (internal/core) or
// the BGP table model it reads (internal/bgp). Only non-test imports count:
// tests may still build fixtures with core.Compress.
func TestServingPlaneBoundary(t *testing.T) {
	const module = "repro/"
	forbidden := []string{"repro/internal/core", "repro/internal/bgp"}
	for _, root := range []string{"repro/internal/rov", "repro/internal/rtr", "repro/cmd/rtrclient"} {
		// Breadth first over the module's packages, each reached by the
		// shortest import chain, which the failure names.
		via := map[string]string{root: ""}
		for queue := []string{root}; len(queue) > 0; queue = queue[1:] {
			path := queue[0]
			pkg, err := build.ImportDir(filepath.FromSlash(strings.TrimPrefix(path, module)), 0)
			if err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			for _, imp := range pkg.Imports {
				if _, seen := via[imp]; seen || !strings.HasPrefix(imp, module) {
					continue
				}
				via[imp] = path
				if slices.Contains(forbidden, imp) {
					chain := imp
					for at := path; at != ""; at = via[at] {
						chain = at + " -> " + chain
					}
					t.Errorf("%s links %s: %s", root, imp, chain)
					continue
				}
				queue = append(queue, imp)
			}
		}
	}
}
