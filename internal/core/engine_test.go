package core

// Tests for the sharded async query engine: pull coalescing, concurrent
// submission across shards, the wired-replica bridge, and lifecycle.

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"presto/internal/proxy"
	"presto/internal/query"
	"presto/internal/radio"
	"presto/internal/simtime"
)

// buildSharded assembles a multi-proxy deployment with the given shard
// count and registers cleanup.
func buildSharded(t *testing.T, proxies, motesPer, shards int, mutate func(*Config)) *Network {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Radio.LossProb = 0
	cfg.Radio.JitterMax = 0
	cfg.Proxies = proxies
	cfg.MotesPerProxy = motesPer
	cfg.Shards = shards
	cfg.Traces = tempTraces(t, proxies*motesPer, 4, 0)
	if mutate != nil {
		mutate(&cfg)
	}
	n, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Close)
	return n
}

// holdShard parks the worker owning mote m on a blocking command and
// returns its release. Commands queued while the worker is held run back
// to back on release, before the worker first steps its kernel — which
// makes pull coalescing across separately submitted specs deterministic.
func holdShard(t *testing.T, n *Network, m radio.NodeID) (release func()) {
	t.Helper()
	s, err := n.shardFor(m)
	if err != nil {
		t.Fatal(err)
	}
	held, gate := make(chan struct{}), make(chan struct{})
	if !s.enqueue(shardCmd{fn: func(*shard) { close(held); <-gate }}) {
		t.Fatal("shard closed")
	}
	<-held
	return func() { close(gate) }
}

// submitHeld submits one-shot specs while the owning worker of mote m is
// held, then releases it and collects every spec's single SetResult in
// submission order.
func submitHeld(t *testing.T, n *Network, m radio.NodeID, specs []query.Spec) []query.SetResult {
	t.Helper()
	release := holdShard(t, n, m)
	chans := make([]<-chan query.SetResult, len(specs))
	for i, spec := range specs {
		ch, err := n.SubmitSpec(context.Background(), spec)
		if err != nil {
			release()
			t.Fatal(err)
		}
		chans[i] = ch
	}
	release()
	out := make([]query.SetResult, len(specs))
	for i, ch := range chans {
		res, ok := <-ch
		if !ok {
			t.Fatalf("spec %d never delivered", i)
		}
		out[i] = res
	}
	return out
}

func TestSpecsCoalesceColdPulls(t *testing.T) {
	// N concurrent tight-precision one-mote specs on one cold mote must
	// pay exactly one archive rendezvous whose response fans out to all.
	n := buildSharded(t, 1, 1, 1, nil)
	n.Start()
	n.Run(4 * time.Hour)

	const N = 8
	at := 2 * simtime.Hour
	specs := make([]query.Spec, N)
	for i := range specs {
		specs[i] = query.Spec{Type: query.Past, Select: query.SelectMotes(1), T0: at, T1: at, Precision: 0.01}
	}
	for i, set := range submitHeld(t, n, 1, specs) {
		if len(set.Results) != 1 {
			t.Fatalf("spec %d never completed (%d failed)", i, set.Failed)
		}
		res := set.Results[0]
		if res.Answer.Source != proxy.FromPull {
			t.Fatalf("spec %d source %v, want pull", i, res.Answer.Source)
		}
		if _, ok := res.Answer.Value(); !ok {
			t.Fatalf("spec %d: no value", i)
		}
	}

	ms, err := n.MoteStats(1)
	if err != nil {
		t.Fatal(err)
	}
	if ms.PullsServed != 1 {
		t.Fatalf("mote served %d pulls for %d concurrent cold specs, want exactly 1", ms.PullsServed, N)
	}
	ps, err := n.ProxyStatsFor(1)
	if err != nil {
		t.Fatal(err)
	}
	if ps.PullsIssued != 1 || ps.PullsCoalesced != N-1 {
		t.Fatalf("proxy issued=%d coalesced=%d, want 1 and %d", ps.PullsIssued, ps.PullsCoalesced, N-1)
	}
}

func TestQueuedPullsMergeIntoOneFollowUp(t *testing.T) {
	// Two disjoint cold ranges: the second cannot join the first
	// rendezvous, so it queues and issues as one merged follow-up —
	// two rendezvous total, not three.
	n := buildSharded(t, 1, 1, 1, nil)
	n.Start()
	n.Run(6 * time.Hour)
	var specs []query.Spec
	for _, h := range []simtime.Time{1, 3, 4} {
		specs = append(specs, query.Spec{Type: query.Past, Select: query.SelectMotes(1), T0: h * simtime.Hour, T1: h * simtime.Hour, Precision: 0.01})
	}
	for i, set := range submitHeld(t, n, 1, specs) {
		if len(set.Results) != 1 {
			t.Fatalf("spec %d never completed", i)
		}
	}
	ms, _ := n.MoteStats(1)
	if ms.PullsServed != 2 {
		t.Fatalf("mote served %d pulls, want 2 (first + merged follow-up)", ms.PullsServed)
	}
	ps, _ := n.ProxyStatsFor(1)
	if ps.PullsQueued != 2 {
		t.Fatalf("queued=%d, want 2", ps.PullsQueued)
	}
}

func TestSubmitHammerAcrossShards(t *testing.T) {
	// The -race workhorse: many goroutines submit against every shard
	// while Run advances time concurrently — with and without the wired
	// replica answering remote motes' NOW specs first.
	for _, wired := range []bool{false, true} {
		t.Run(fmt.Sprintf("wired=%v", wired), func(t *testing.T) {
			n := buildSharded(t, 4, 2, 4, func(c *Config) { c.WiredFirstProxy = wired })
			if n.Shards() != 4 {
				t.Fatalf("shards=%d", n.Shards())
			}
			n.Start()
			n.Run(2 * time.Hour)

			ids := n.MoteIDs()
			var wg sync.WaitGroup
			for g := 0; g < 16; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < 10; i++ {
						id := ids[(g*7+i)%len(ids)]
						res, err := queryMote(n, query.Spec{Type: query.Now, Select: query.SelectMotes(id), Precision: 2})
						if err != nil {
							t.Errorf("mote %d: %v", id, err)
							return
						}
						if _, ok := res.Answer.Value(); !ok {
							t.Errorf("mote %d: empty answer", id)
							return
						}
					}
				}(g)
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 4; i++ {
					n.Run(10 * time.Minute)
				}
			}()
			wg.Wait()

			submitted, served, _, _ := n.EngineStats()
			if submitted != 160 {
				t.Fatalf("submitted=%d, want 160", submitted)
			}
			if wired && served == 0 {
				t.Fatal("no remote NOW spec was served by the wired replica")
			}
		})
	}
}

func TestShardedRunAdvancesAllDomains(t *testing.T) {
	n := buildSharded(t, 4, 1, 2, nil)
	n.Start()
	n.Run(time.Hour)
	if now := n.Now(); now != simtime.Hour {
		t.Fatalf("Now()=%v, want 1h", now)
	}
	// Every mote sampled in its own domain.
	for _, id := range n.MoteIDs() {
		st, err := n.MoteStats(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.Samples != 60 {
			t.Fatalf("mote %d samples=%d", id, st.Samples)
		}
	}
}

func TestWiredReplicaBridgeAcrossShards(t *testing.T) {
	// Proxy 0 (wired, shard 0) mirrors the wireless proxies in other
	// domains over the bridge and serves their NOW queries locally.
	n := buildSharded(t, 2, 2, 2, func(c *Config) { c.WiredFirstProxy = true })
	if _, err := n.Bootstrap(36*time.Hour, 24, 1.0); err != nil {
		t.Fatal(err)
	}
	n.Run(4 * time.Hour)

	// Mote 3 lives in shard 1; its NOW queries should be answerable by
	// the replica in shard 0 without touching shard 1.
	res, err := queryMote(n, query.Spec{Type: query.Now, Select: query.SelectMotes(3), Precision: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	v, ok := res.Answer.Value()
	if !ok {
		t.Fatal("replica gave no answer")
	}
	truth, _ := n.Truth(3, res.Answer.Entries[0].T)
	if math.Abs(v-truth) > 2.5 {
		t.Fatalf("replica answer %.3f vs truth %.3f", v, truth)
	}

	_, replicaServed, bridgeSent, bridgeDelivered := n.EngineStats()
	if replicaServed == 0 {
		t.Fatal("no queries served by the wired replica")
	}
	if bridgeSent == 0 || bridgeDelivered == 0 {
		t.Fatalf("bridge idle: sent=%d delivered=%d", bridgeSent, bridgeDelivered)
	}
}

func TestWiredReplicaServesDataSingleDomain(t *testing.T) {
	// In a single domain the replica is fed by a direct tap: queries for
	// wireless proxies' motes route to proxy 0 (seed behaviour) and now
	// return real mirrored data instead of empty answers.
	n := buildSharded(t, 2, 2, 1, func(c *Config) { c.WiredFirstProxy = true })
	if _, err := n.Bootstrap(36*time.Hour, 24, 1.0); err != nil {
		t.Fatal(err)
	}
	n.Run(2 * time.Hour)
	res, err := queryMote(n, query.Spec{Type: query.Now, Select: query.SelectMotes(3), Precision: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	v, ok := res.Answer.Value()
	if !ok {
		t.Fatal("replica-routed query returned empty answer")
	}
	truth, _ := n.Truth(3, res.Answer.Entries[0].T)
	if math.Abs(v-truth) > 1.5 {
		t.Fatalf("replica answer %.3f vs truth %.3f", v, truth)
	}
	_, replicaRouted := n.Store.Stats()
	if replicaRouted == 0 {
		t.Fatal("store did not route to the wired replica")
	}
}

func TestCloseRejectsFurtherWork(t *testing.T) {
	n := buildSharded(t, 2, 1, 2, nil)
	n.Start()
	n.Run(time.Hour)
	n.Close()
	n.Close() // idempotent
	spec := query.Spec{Type: query.Now, Select: query.SelectMotes(1), Precision: 1}
	if _, err := n.SubmitSpec(context.Background(), spec); err != ErrClosed {
		t.Fatalf("SubmitSpec after Close: %v", err)
	}
	if _, err := queryMote(n, spec); err == nil {
		t.Fatal("QueryOne after Close succeeded")
	}
}

func TestSubmitAsyncResult(t *testing.T) {
	// SubmitSpec returns immediately; the result arrives on the channel.
	n := buildSharded(t, 1, 2, 1, nil)
	n.Start()
	n.Run(3 * time.Hour)
	ch, err := n.SubmitSpec(context.Background(), query.Spec{
		Type: query.Past, Select: query.SelectMotes(1), T0: simtime.Hour, T1: simtime.Hour, Precision: 0.01,
	})
	if err != nil {
		t.Fatal(err)
	}
	set, ok := <-ch
	if !ok || len(set.Results) != 1 {
		t.Fatal("query never completed")
	}
	if res := set.Results[0]; res.Answer.Source != proxy.FromPull {
		t.Fatalf("source %v", res.Answer.Source)
	}
}

func TestSubmitUnknownMote(t *testing.T) {
	n := buildSharded(t, 1, 1, 1, nil)
	if _, err := n.SubmitSpec(context.Background(), query.Spec{Type: query.Now, Select: query.SelectMotes(99)}); err == nil {
		t.Fatal("unknown mote accepted")
	}
	if _, err := n.SubmitSpec(context.Background(), query.Spec{Type: query.Now, Select: query.SelectMotes(1, 99)}); err == nil {
		t.Fatal("unknown mote accepted in a mote set")
	}
}
