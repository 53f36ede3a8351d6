// Command roagen generates the calibrated synthetic datasets that stand in
// for the paper's RouteViews + RPKI snapshots: a BGP table dump, the
// status-quo VRP CSV, and (optionally) a cryptographically signed .roa
// repository for the ROAs of the snapshot's first ROAs.
//
// Usage:
//
//	roagen -date 2017-06-01 -outdir data/ [-scale 0.01] [-sign-repo N]
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"repro/internal/bgp"
	"repro/internal/rpki"
	"repro/internal/rpkix"
	"repro/internal/synth"
)

func main() {
	var (
		date     = flag.String("date", "2017-06-01", "snapshot date (weekly snapshots 2017-04-13..2017-06-01)")
		outdir   = flag.String("outdir", "data", "output directory")
		scale    = flag.Float64("scale", 1.0, "scale all block counts (e.g. 0.01 for a quick run)")
		signRepo = flag.Int("sign-repo", 0, "also sign the first N ROAs into <outdir>/repo as .roa objects")
	)
	flag.Parse()
	d, err := time.Parse("2006-01-02", *date)
	if err != nil {
		log.Fatalf("roagen: bad -date: %v", err)
	}
	params := synth.SnapshotParams(d).Scale(*scale)
	ds := synth.Generate(params)
	log.Printf("roagen: %s", ds.Summary())

	if err := os.MkdirAll(*outdir, 0o755); err != nil {
		log.Fatalf("roagen: %v", err)
	}
	tag := d.Format("20060102")
	bgpPath := filepath.Join(*outdir, fmt.Sprintf("bgp-%s.txt", tag))
	vrpPath := filepath.Join(*outdir, fmt.Sprintf("vrps-%s.csv", tag))
	if err := writeBGP(bgpPath, ds); err != nil {
		log.Fatalf("roagen: %v", err)
	}
	if err := writeVRPs(vrpPath, ds); err != nil {
		log.Fatalf("roagen: %v", err)
	}
	log.Printf("roagen: wrote %s (%d routes) and %s (%d tuples)",
		bgpPath, ds.Table.Len(), vrpPath, ds.VRPs.Len())

	if *signRepo > 0 {
		dir := filepath.Join(*outdir, "repo")
		n, err := signROAs(dir, ds, *signRepo)
		if err != nil {
			log.Fatalf("roagen: signing repo: %v", err)
		}
		log.Printf("roagen: signed %d ROA objects into %s", n, dir)
	}
}

func writeBGP(path string, ds *synth.Dataset) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	return errors.Join(bgp.WriteTable(f, ds.Table), f.Close())
}

func writeVRPs(path string, ds *synth.Dataset) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	return errors.Join(rpki.WriteCSV(f, ds.VRPs), f.Close())
}

// signROAs builds a one-CA repository holding all resources and signs the
// first n ROAs of the dataset.
func signROAs(dir string, ds *synth.Dataset, n int) (int, error) {
	repo, err := rpkix.NewRepository("roagen TA")
	if err != nil {
		return 0, err
	}
	ca, err := repo.AddCA("roagen CA", []string{"0.0.0.0/0", "::/0"})
	if err != nil {
		return 0, err
	}
	count := 0
	for _, roa := range ds.ROAs {
		if count >= n {
			break
		}
		if err := repo.PublishROA(ca, roa); err != nil {
			return count, err
		}
		count++
	}
	return count, repo.Write(dir)
}
