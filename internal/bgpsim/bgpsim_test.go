package bgpsim

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/prefix"
	"repro/internal/rpki"
)

func mp(s string) prefix.Prefix { return prefix.MustParse(s) }

// lineTopology builds 0 --provider-- 1 --provider-- 2 ... (0 at the top).
func lineTopology(n int) *Topology {
	t := NewTopology(n)
	for i := 0; i < n-1; i++ {
		t.AddLink(i, i+1, Customer) // i+1 is i's customer
	}
	return t
}

func TestSimulateLinePropagation(t *testing.T) {
	// Origin at the bottom of a 4-node provider chain: everyone routes to it
	// via customer routes going up.
	topo := lineTopology(4)
	p := mp("10.0.0.0/8")
	anns := []Announcement{{Prefix: p, Announcer: 3, PathSuffix: []rpki.ASN{topo.ASN(3)}}}
	out := Simulate(topo, anns, Config{})
	for node := 0; node < 4; node++ {
		if out.Chosen(node, p) != 0 {
			t.Fatalf("node %d has no route", node)
		}
		if got := out.Forward(node, deepTarget(p)); got != 3 {
			t.Fatalf("Forward(%d) = %d, want 3", node, got)
		}
	}
}

func TestValleyFreeExport(t *testing.T) {
	// V topology: 1 and 2 are both customers of 0; origin at 1. Node 2 must
	// reach it via provider 0 (provider route). Then W: peer link between 1
	// and 2 would be preferred by 2 (peer > provider).
	topo := NewTopology(3)
	topo.AddLink(0, 1, Customer)
	topo.AddLink(0, 2, Customer)
	p := mp("10.0.0.0/8")
	anns := []Announcement{{Prefix: p, Announcer: 1, PathSuffix: []rpki.ASN{topo.ASN(1)}}}
	out := Simulate(topo, anns, Config{})
	if out.Forward(2, deepTarget(p)) != 1 {
		t.Fatal("2 cannot reach 1 via 0")
	}

	topo2 := NewTopology(3)
	topo2.AddLink(0, 1, Customer)
	topo2.AddLink(0, 2, Customer)
	topo2.AddLink(1, 2, Peer)
	out2 := Simulate(topo2, anns, Config{})
	// Node 2 prefers the peer route (class) over the provider route.
	g := out2.routes[0][2]
	if g.class != Peer || g.next != 1 {
		t.Fatalf("node 2 route = %+v, want peer via 1", g)
	}
	// Valley-free: node 0 must NOT be offered 2's peer route (peer-learned
	// routes are exported only to customers... 0 is 2's provider).
	if out2.routes[0][0].next != 1 {
		t.Fatalf("node 0 should route directly to its customer 1, got %+v", out2.routes[0][0])
	}
}

func TestPreferCustomerOverShorterProvider(t *testing.T) {
	// Node 1 has customer 2 (origin) and provider 0 that also connects to
	// origin more directly. Customer class must win regardless of length.
	topo := NewTopology(4)
	topo.AddLink(0, 1, Customer) // 1 is 0's customer
	topo.AddLink(1, 2, Customer) // 2 is 1's customer
	topo.AddLink(2, 3, Customer) // 3 is 2's customer (origin at 3)
	topo.AddLink(0, 3, Customer) // shortcut: 3 is also 0's direct customer
	p := mp("10.0.0.0/8")
	anns := []Announcement{{Prefix: p, Announcer: 3, PathSuffix: []rpki.ASN{topo.ASN(3)}}}
	out := Simulate(topo, anns, Config{})
	r := out.routes[0][1]
	if r.class != Customer || r.next != 2 {
		t.Fatalf("node 1 route = %+v, want customer via 2 (despite shorter provider path)", r)
	}
}

func TestROVFiltersInvalid(t *testing.T) {
	topo := lineTopology(3)
	p := mp("10.0.0.0/8")
	vrps := rpki.NewSet([]rpki.VRP{{Prefix: p, MaxLength: 8, AS: topo.ASN(2)}})
	// An attacker (node 2's sibling doesn't exist here; reuse node 0) —
	// instead: node 0 announces p claiming itself as origin: Invalid.
	anns := []Announcement{
		{Prefix: p, Announcer: 2, PathSuffix: []rpki.ASN{topo.ASN(2)}},
		{Prefix: p, Announcer: 0, PathSuffix: []rpki.ASN{topo.ASN(0)}},
	}
	out := Simulate(topo, anns, Config{VRPs: vrps, ValidatingShare: 1})
	// Node 1 validates: it must pick the valid origin 2 (its customer),
	// not its provider 0's invalid route.
	if got := out.Chosen(1, p); got != 0 {
		t.Fatalf("node 1 chose announcement %d, want the valid one (0)", got)
	}
}

func TestRunningExampleScenarios(t *testing.T) {
	topo := Generate(GenerateParams{Seed: 42, N: 400})
	victim, attacker := topo.N()-3, topo.N()-7
	s := RunningExampleSetup(topo, victim, attacker)

	sub := RunScenario(SubprefixNoROV, s)
	if sub.CaptureRate < 0.95 {
		t.Errorf("subprefix hijack capture = %.2f, want ~1 (longest-prefix match always prefers the /24)", sub.CaptureRate)
	}
	min := RunScenario(SubprefixMinimalROA, s)
	if min.CaptureRate != 0 {
		t.Errorf("minimal ROA + ROV capture = %.2f, want 0", min.CaptureRate)
	}
	forged := RunScenario(ForgedOriginSubprefix, s)
	if forged.CaptureRate < 0.95 {
		t.Errorf("forged-origin subprefix capture = %.2f, want ~1 (the §4 attack)", forged.CaptureRate)
	}
	same := RunScenario(ForgedOriginPrefix, s)
	if same.CaptureRate >= 0.5 {
		t.Errorf("same-prefix forged-origin capture = %.2f, want < 0.5 (traffic splits, §5)", same.CaptureRate)
	}
	if same.CaptureRate <= 0 {
		t.Errorf("same-prefix forged-origin capture = 0; the attacker should attract someone")
	}
	// The paper's ordering: forged-origin subprefix ≈ subprefix >> same-prefix > minimal(=0).
	if !(forged.CaptureRate > same.CaptureRate && same.CaptureRate > min.CaptureRate) {
		t.Errorf("capture ordering violated: sub=%.2f forged=%.2f same=%.2f min=%.2f",
			sub.CaptureRate, forged.CaptureRate, same.CaptureRate, min.CaptureRate)
	}
}

func TestRunAllOrdering(t *testing.T) {
	topo := Generate(GenerateParams{Seed: 7, N: 300})
	rates := RunAll(topo, 8)
	if rates[SubprefixNoROV] < 0.9 || rates[ForgedOriginSubprefix] < 0.9 {
		t.Errorf("subprefix-style attacks should capture ~100%%: %v", rates)
	}
	if rates[SubprefixMinimalROA] != 0 {
		t.Errorf("minimal ROA should block completely: %v", rates)
	}
	if rates[ForgedOriginPrefix] >= rates[ForgedOriginSubprefix] {
		t.Errorf("same-prefix attack should be weaker: %v", rates)
	}
	var buf bytes.Buffer
	if err := RenderResults(&buf, rates); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "forged-origin subprefix") {
		t.Errorf("render:\n%s", buf.String())
	}
}

func TestScenarioKindStrings(t *testing.T) {
	for k := ScenarioKind(0); k < numScenarioKinds; k++ {
		if strings.HasPrefix(k.String(), "ScenarioKind(") {
			t.Errorf("missing name for %d", k)
		}
	}
	if !strings.Contains(ScenarioKind(42).String(), "42") {
		t.Error("unknown kind label")
	}
}

func TestGenerateTopologyShape(t *testing.T) {
	topo := Generate(GenerateParams{Seed: 1, N: 500})
	if topo.N() != 500 {
		t.Fatalf("N = %d", topo.N())
	}
	// Everyone can reach a tier-1-homed origin (connectivity sanity).
	p := mp("192.0.2.0/24")
	anns := []Announcement{{Prefix: p, Announcer: 0, PathSuffix: []rpki.ASN{topo.ASN(0)}}}
	out := Simulate(topo, anns, Config{})
	unreached := 0
	for node := 0; node < topo.N(); node++ {
		if out.Chosen(node, p) < 0 {
			unreached++
		}
	}
	if unreached > 0 {
		t.Errorf("%d nodes cannot reach a tier-1 origin", unreached)
	}
}

func TestGenerateDefaultsClamp(t *testing.T) {
	topo := Generate(GenerateParams{Seed: 1, N: 3}) // clamped to 16
	if topo.N() < 16 {
		t.Errorf("N = %d, want clamped >= 16", topo.N())
	}
}

func TestForwardUnroutable(t *testing.T) {
	topo := lineTopology(2)
	out := Simulate(topo, []Announcement{
		{Prefix: mp("10.0.0.0/8"), Announcer: 0, PathSuffix: []rpki.ASN{topo.ASN(0)}},
	}, Config{})
	if got := out.Forward(1, deepTarget(mp("192.0.2.0/24"))); got != -1 {
		t.Errorf("unroutable destination forwarded to %d", got)
	}
}

func TestDeflectionThroughNonValidatingProvider(t *testing.T) {
	// The subtle LPM interaction: a validating AS drops the hijacked /24 and
	// keeps the /16 toward the victim — but if its next hop doesn't
	// validate, the packet deflects to the attacker there. With partial ROV
	// adoption the hijack still succeeds beyond the validator.
	//
	// Node 0 (the only validator, lowest id) is a customer of the
	// non-validating hub 1, which also serves the victim 2 and attacker 3.
	//
	//        1 (non-validating hub)
	//      / | \
	//     0  2  3      0 validates; 2 victim; 3 attacker
	topo := NewTopology(4)
	topo.AddLink(1, 0, Customer)
	topo.AddLink(1, 2, Customer)
	topo.AddLink(1, 3, Customer)
	p16, p24 := mp("168.122.0.0/16"), mp("168.122.0.0/24")
	vrps := rpki.NewSet([]rpki.VRP{{Prefix: p16, MaxLength: 16, AS: topo.ASN(2)}})
	anns := []Announcement{
		{Prefix: p16, Announcer: 2, PathSuffix: []rpki.ASN{topo.ASN(2)}},
		{Prefix: p24, Announcer: 3, PathSuffix: []rpki.ASN{topo.ASN(3)}},
	}
	// ValidatingShare 0.25 => only node 0 validates; the attacker's /24 is
	// Invalid there and dropped.
	out := Simulate(topo, anns, Config{VRPs: vrps, ValidatingShare: 0.25})
	if out.Chosen(0, p24) != -1 {
		t.Fatal("validating node kept the invalid /24")
	}
	// Yet node 0's traffic for the /24 deflects at the hub to the attacker:
	// dropping the route does not protect a validator behind a
	// non-validating provider.
	if got := out.Forward(0, deepTarget(p24)); got != 3 {
		t.Errorf("deflection: Forward(0) = %d, want attacker 3", got)
	}
	// The hub itself routes the /24 to the attacker outright.
	if got := out.Forward(1, deepTarget(p24)); got != 3 {
		t.Errorf("hub: Forward(1) = %d, want attacker 3", got)
	}
}
