package rtr

import (
	"fmt"
	"io"
	"net"

	"repro/internal/rpki"
)

// sameVRPs compares two delta slices regardless of order.
func sameVRPs(a, b []rpki.VRP) bool {
	if len(a) != len(b) {
		return false
	}
	am := vrpSet(a)
	for _, v := range b {
		if _, ok := am[v]; !ok {
			return false
		}
	}
	return true
}

// recorded is one recorded subscriber delivery.
type recorded struct {
	ann, wd []rpki.VRP
}

// expectQuery reads one PDU from the cache's end of a scripted connection
// and checks it is a Reset Query (session < 0) or the given Serial Query.
func expectQuery(conn net.Conn, session int, serial Serial) error {
	pdu, _, err := ReadPDU(conn)
	if err != nil {
		return err
	}
	if session < 0 {
		if _, ok := pdu.(*ResetQuery); !ok {
			return fmt.Errorf("got %T %+v, want Reset Query", pdu, pdu)
		}
		return nil
	}
	if q, ok := pdu.(*SerialQuery); !ok || q.SessionID != uint16(session) || q.Serial != serial {
		return fmt.Errorf("got %T %+v, want Serial Query for session %#x serial %d", pdu, pdu, session, serial)
	}
	return nil
}

// answer serves one response: Cache Response, the announcements, and an End
// of Data advertising Refresh 1800s, Retry 300s and the given Expire.
func answer(conn io.Writer, session uint16, serial Serial, expire uint32, announce ...rpki.VRP) error {
	if err := WritePDU(conn, Version1, &CacheResponse{SessionID: session}); err != nil {
		return err
	}
	for _, v := range announce {
		if err := WritePDU(conn, Version1, &Prefix{Flags: FlagAnnounce, VRP: v}); err != nil {
			return err
		}
	}
	return WritePDU(conn, Version1, &EndOfData{
		SessionID: session, Serial: serial, Refresh: 1800, Retry: 300, Expire: expire,
	})
}
