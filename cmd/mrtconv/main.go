// Command mrtconv converts between the repository's plain-text BGP dumps
// and the MRT TABLE_DUMP_V2 binary format RouteViews publishes (RFC 6396),
// in either direction.
//
// Usage:
//
//	mrtconv -totext rib.mrt > table.txt
//	mrtconv -tomrt table.txt -timestamp 1496275200 > rib.mrt
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/bgp"
)

func main() {
	var (
		toText    = flag.String("totext", "", "MRT file to convert to text (stdout)")
		toMRT     = flag.String("tomrt", "", "text dump to convert to MRT (stdout)")
		timestamp = flag.Uint("timestamp", 1496275200, "MRT record timestamp (UNIX; default 6/1/2017)")
	)
	flag.Parse()
	if *timestamp > 0xffffffff {
		fmt.Fprintln(os.Stderr, "mrtconv: -timestamp must fit in 32 bits")
		os.Exit(2)
	}
	switch {
	case *toText != "" && *toMRT == "":
		if err := mrtToText(*toText); err != nil {
			fmt.Fprintln(os.Stderr, "mrtconv:", err)
			os.Exit(1)
		}
	case *toMRT != "" && *toText == "":
		if err := textToMRT(*toMRT, uint32(*timestamp)); err != nil {
			fmt.Fprintln(os.Stderr, "mrtconv:", err)
			os.Exit(1)
		}
	default:
		fmt.Fprintln(os.Stderr, "mrtconv: exactly one of -totext or -tomrt is required")
		os.Exit(2)
	}
}

func mrtToText(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	anns, err := bgp.ReadMRT(f)
	if err != nil {
		return err
	}
	for _, a := range anns {
		fmt.Print(a.Prefix)
		for _, as := range a.Path {
			fmt.Printf(" %d", uint32(as))
		}
		fmt.Println()
	}
	return nil
}

func textToMRT(path string, ts uint32) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	anns, err := bgp.ReadDump(f)
	if err != nil {
		return err
	}
	mw := bgp.NewMRTWriter(os.Stdout, ts)
	for _, a := range anns {
		if err := mw.WriteAnnouncement(a); err != nil {
			return err
		}
	}
	return mw.Flush()
}
