package repro

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/rpki"
	"repro/internal/synth"
)

// TestCompressPipelineDifferential pins Compress on the paper-scale 6/1/2017
// snapshot: for every Mode × Subsumption combination the output must be a
// normalized Set that Result describes and — in Strict mode — semantically
// equal to the input. (That the output is tuple for tuple the trie
// algorithm's is internal/core's TestCompressMatchesTrieReference.)
func TestCompressPipelineDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping paper-scale differential")
	}
	d := synth.Generate(synth.Params6_1())
	for _, mode := range []core.Mode{core.Strict, core.Literal} {
		for _, subsume := range []bool{false, true} {
			name := fmt.Sprintf("mode=%d/subsume=%v", mode, subsume)
			t.Run(name, func(t *testing.T) {
				out, res := core.Compress(d.VRPs, core.Options{Mode: mode, Subsumption: subsume})
				if res.In != d.VRPs.Len() || res.Out != out.Len() {
					t.Fatalf("Result says %d → %d, sets hold %d → %d", res.In, res.Out, d.VRPs.Len(), out.Len())
				}
				if !out.Equal(rpki.NewSet(out.VRPs())) {
					t.Fatal("output is not normalized")
				}
				if mode == core.Strict {
					if err := core.VerifyCompression(d.VRPs, out); err != nil {
						t.Fatal(err)
					}
				}
			})
		}
	}
}
