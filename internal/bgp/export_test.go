package bgp

// ByOrigin exposes t's (origin, prefix) order to the external tests.
func ByOrigin(t *Table) []Route { return t.byOrigin }
