package bgp

import (
	"bytes"
	"testing"

	"repro/internal/rpki"
)

// FuzzReadMRT checks the MRT parser never panics.
func FuzzReadMRT(f *testing.F) {
	var buf bytes.Buffer
	mw := NewMRTWriter(&buf, 1)
	_ = mw.WriteAnnouncement(Announcement{Prefix: mp("10.0.0.0/8"), Path: []rpki.ASN{7}})
	_ = mw.Flush()
	f.Add(buf.Bytes())
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		anns, err := ReadMRT(bytes.NewReader(data))
		if err != nil {
			return
		}
		for _, a := range anns {
			if !a.Prefix.IsValid() {
				t.Fatal("parser produced an invalid prefix")
			}
			if len(a.Path) == 0 {
				t.Fatal("parser produced an empty path")
			}
		}
	})
}
