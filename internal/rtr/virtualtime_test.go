package rtr

import (
	"bytes"
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

// bubbledTests are bubble_test.go's tests. They need testing/synctest,
// which Go 1.24 builds only with GOEXPERIMENT=synctest (make race sets it);
// a build without it runs them in a child go test that sets it. The build
// tags, this file and nobubble_test.go go once the toolchain is Go 1.25 or
// later, where synctest.Test is GA.
var bubbledTests = []string{
	"TestUpstreamRefreshAndRetryFakeClock",
	"TestUpstreamRetryStopsAtExpire",
	"TestSplitNotifyAcrossRefreshBoundary",
	"TestUpstreamNotifyVsRefreshRace",
	"TestUpstreamConnFailureWhileIdle",
	"TestUpstreamSyncTimeoutUnwedgesSilentCache",
	"TestUpstreamBackoffSequence",
	"TestUpstreamSerialResumeAndResetFallback",
	"TestUpstreamExpireAcrossFlappingConnections",
	"TestHealthyAfterFailoverKeepsStandbyClock",
	"TestFollowLifecycle",
	"TestFollowExpiry",
	"TestMultiSupervisorExpiryRebuild",
	"TestRealServerRestart",
	"TestMultiSupervisorFailoverFailback",
	"TestConcurrentSyncResetDispatch",
	"TestSubscribeBlockingConsumer",
	"TestSyncFailureSetsErr",
}

// child is the one run of the bubbled tests with the experiment: the go
// command's exit error, its output as go test prints it, and each test's
// verdict ("pass", "fail" or "skip"), own output and subtests.
var child struct {
	once            sync.Once
	err             error
	log             strings.Builder
	verdict, output map[string]string
	subs            map[string][]string
}

// runBubbles runs the child, once, for the first test t that asks. The child
// times out a quarter of t's time short of t's deadline: a bubble stuck on a
// sync.Mutex is not durably blocked, so synctest reports nothing, and the
// child's timeout is what ends it — early enough that this binary still
// relays the child's goroutine dump, which names the stuck test, before its
// own timeout ends it with a dump that names only the relay.
func runBubbles(t *testing.T) {
	child.once.Do(func() {
		timeout := 10 * time.Minute // go test's own, where t has no deadline
		if dl, ok := t.Deadline(); ok {
			timeout = time.Until(dl) * 3 / 4
		}
		args := []string{"test", "-count=1", "-timeout=" + timeout.String(), "-json", "-run=^(" + strings.Join(bubbledTests, "|") + ")$", "."}
		cmd := exec.Command("go", args...)
		cmd.Env = append(os.Environ(), "GOEXPERIMENT="+strings.TrimPrefix(os.Getenv("GOEXPERIMENT")+",synctest", ","))
		var out []byte
		out, child.err = cmd.CombinedOutput()
		child.verdict, child.output, child.subs = map[string]string{}, map[string]string{}, map[string][]string{}
		for _, line := range bytes.Split(out, []byte("\n")) {
			var e struct{ Action, Test, Output string }
			if json.Unmarshal(line, &e) != nil {
				e.Output = string(line) + "\n"
			}
			child.log.WriteString(e.Output)
			switch e.Action {
			case "run":
				if i := strings.LastIndex(e.Test, "/"); i >= 0 {
					child.subs[e.Test[:i]] = append(child.subs[e.Test[:i]], e.Test)
				}
			case "output":
				child.output[e.Test] += e.Output
			case "pass", "fail", "skip":
				child.verdict[e.Test] = e.Action
			}
		}
	})
}

// relay reports the child run's verdict on t's test, and on its subtests as
// subtests of t.
func relay(t *testing.T) {
	runBubbles(t)
	for _, sub := range child.subs[t.Name()] {
		t.Run(sub[len(t.Name())+1:], relay)
	}
	switch child.verdict[t.Name()] {
	case "pass":
	case "skip":
		t.Skip(child.output[t.Name()])
	case "fail":
		t.Error(child.output[t.Name()])
	default: // not run, or the child timed out in it: its log says which
		t.Fatalf("no verdict from the GOEXPERIMENT=synctest run (%v):\n%s", child.err, child.log.String())
	}
}

// TestVirtualTime runs the bubbled tests where this binary cannot, in a
// child go test built with GOEXPERIMENT=synctest, and fails if that run
// fails; nobubble_test.go reports each test's own verdict.
func TestVirtualTime(t *testing.T) {
	if bubbled {
		t.Skip("built with GOEXPERIMENT=synctest: the bubbled tests run in this binary")
	}
	runBubbles(t)
	if child.err != nil {
		t.Fatalf("GOEXPERIMENT=synctest go test: %v\n%s", child.err, child.log.String())
	}
}

// TestBubbledTestsListed holds bubble_test.go's tests, bubbledTests and
// nobubble_test.go's relays to one set. A bubbled test missing from either
// list would run only in a binary built with the experiment (make race),
// and a plain go test would never report it.
func TestBubbledTestsListed(t *testing.T) {
	tests := func(file string) []string {
		f, err := parser.ParseFile(token.NewFileSet(), file, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil && strings.HasPrefix(fn.Name.Name, "Test") {
				names = append(names, fn.Name.Name)
			}
		}
		slices.Sort(names)
		return names
	}
	listed := slices.Sorted(slices.Values(bubbledTests))
	if bubbles, relays := tests("bubble_test.go"), tests("nobubble_test.go"); !slices.Equal(bubbles, listed) || !slices.Equal(relays, listed) {
		t.Fatalf("bubble_test.go's tests %v\nbubbledTests %v\nnobubble_test.go's relays %v\nmust be one set", bubbles, listed, relays)
	}
}
