// Command vulnscan is the §4/§6 analyzer: given a VRP CSV and a BGP table
// dump, it reports which maxLength-using tuples are non-minimal and thus
// vulnerable to forged-origin subprefix hijacks, a concrete hijackable
// witness route per tuple, and the exposed address space per origin AS.
//
// Usage:
//
//	vulnscan -vrps vrps.csv -bgp table.txt [-details] [-top 10]
package main

import (
	"cmp"
	"flag"
	"fmt"
	"log"
	"os"
	"slices"

	"repro/internal/bgp"
	"repro/internal/core"
	"repro/internal/rpki"
)

func main() {
	var (
		vrpsPath = flag.String("vrps", "", "VRP CSV (required)")
		bgpPath  = flag.String("bgp", "", "BGP table dump (required)")
		details  = flag.Bool("details", false, "list each vulnerable tuple with its witness route")
		top      = flag.Int("top", 10, "show the N most-exposed origin ASes")
	)
	flag.Parse()
	if *vrpsPath == "" || *bgpPath == "" {
		fmt.Fprintln(os.Stderr, "vulnscan: -vrps and -bgp are required")
		os.Exit(2)
	}
	set, table, err := load(*vrpsPath, *bgpPath)
	if err != nil {
		log.Fatalf("vulnscan: %v", err)
	}
	rep := core.AnalyzeVulnerabilities(set, table, *details)
	fmt.Printf("tuples:                 %d\n", rep.Tuples)
	fmt.Printf("using maxLength:        %d (%.1f%%)\n", rep.UsingMaxLength, 100*rep.MaxLengthShare())
	fmt.Printf("vulnerable (non-minimal): %d (%.1f%% of maxLength users)\n",
		rep.Vulnerable, 100*rep.VulnerableShare())
	fmt.Printf("hijack-effective today: %d\n", rep.Effective)
	if *details {
		fmt.Println("\nvulnerable tuples (tuple => hijackable witness route):")
		for _, vu := range rep.Vulnerabilities {
			fmt.Printf("  %-40s => %-30s (%d unannounced routes)\n",
				vu.VRP, vu.Witness, vu.UnannouncedRoutes)
		}
	}
	if *top > 0 {
		exposure := core.VulnerableAddressSpace(set, table)
		type row struct {
			as  rpki.ASN
			exp uint64
		}
		rows := make([]row, 0, len(exposure))
		for as, e := range exposure {
			rows = append(rows, row{as, e})
		}
		slices.SortFunc(rows, func(a, b row) int {
			return cmp.Or(cmp.Compare(b.exp, a.exp), cmp.Compare(a.as, b.as))
		})
		if len(rows) > *top {
			rows = rows[:*top]
		}
		fmt.Printf("\nmost exposed origins (addresses hijackable at the maxLength level):\n")
		for _, r := range rows {
			fmt.Printf("  %-12s %d\n", r.as, r.exp)
		}
	}
}

func load(vrpsPath, bgpPath string) (*rpki.Set, *bgp.Table, error) {
	vf, err := os.Open(vrpsPath)
	if err != nil {
		return nil, nil, err
	}
	defer vf.Close()
	set, err := rpki.ReadCSV(vf)
	if err != nil {
		return nil, nil, err
	}
	bf, err := os.Open(bgpPath)
	if err != nil {
		return nil, nil, err
	}
	defer bf.Close()
	table, err := bgp.ReadTable(bf)
	if err != nil {
		return nil, nil, err
	}
	return set, table, nil
}
