//go:build !goexperiment.synctest

package rtr

import "testing"

// bubbled reports that this test binary runs the bubbles itself. Here it
// cannot: each test below reports its namesake's verdict in the child run.
const bubbled = false

func TestUpstreamRefreshAndRetryFakeClock(t *testing.T)        { relay(t) }
func TestUpstreamRetryStopsAtExpire(t *testing.T)              { relay(t) }
func TestSplitNotifyAcrossRefreshBoundary(t *testing.T)        { relay(t) }
func TestUpstreamNotifyVsRefreshRace(t *testing.T)             { relay(t) }
func TestUpstreamConnFailureWhileIdle(t *testing.T)            { relay(t) }
func TestUpstreamSyncTimeoutUnwedgesSilentCache(t *testing.T)  { relay(t) }
func TestUpstreamBackoffSequence(t *testing.T)                 { relay(t) }
func TestUpstreamSerialResumeAndResetFallback(t *testing.T)    { relay(t) }
func TestUpstreamExpireAcrossFlappingConnections(t *testing.T) { relay(t) }
func TestHealthyAfterFailoverKeepsStandbyClock(t *testing.T)   { relay(t) }
func TestFollowLifecycle(t *testing.T)                         { relay(t) }
func TestFollowExpiry(t *testing.T)                            { relay(t) }
func TestMultiSupervisorExpiryRebuild(t *testing.T)            { relay(t) }
func TestRealServerRestart(t *testing.T)                       { relay(t) }
func TestMultiSupervisorFailoverFailback(t *testing.T)         { relay(t) }
func TestConcurrentSyncResetDispatch(t *testing.T)             { relay(t) }
func TestSubscribeBlockingConsumer(t *testing.T)               { relay(t) }
func TestSyncFailureSetsErr(t *testing.T)                      { relay(t) }
