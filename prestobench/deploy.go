package main

import (
	"context"
	"errors"
	"fmt"
	"time"

	"presto/internal/cluster"
	"presto/internal/core"
	"presto/internal/flash"
	"presto/internal/radio"
	"presto/internal/scenario"
	"presto/internal/serve"
	"presto/internal/simtime"
)

// The three workloads.
const (
	hotRepeat  = "hot-repeat"
	coldScan   = "cold-scan"
	liveIngest = "live-ingest"
)

var workloads = []string{hotRepeat, coldScan, liveIngest}

// Deployment shape: the campus scenario (heterogeneous temperature,
// activity and traffic sensors, lossy radio, regional events) scaled to
// 64 proxies x 4 motes over 8 simulation domains.
const (
	proxies       = 64
	motesPerProxy = 4
	fleet         = proxies * motesPerProxy
	bootstrapBins = 48
)

// chunk is the virtual time one advance covers: warm-up and the
// live-ingest pace loop both step in it (prestod's -http-pace slice).
const chunk = time.Minute

// ingestFlash sizes each domain's flash archive on live-ingest so that
// compaction and wavelet aging recur in steady state: 16 blocks of
// 64 x 512 B pages hold ~26k records, about a day of one domain's
// observations.
var ingestFlash = flash.Geometry{PageSize: 512, PagesPerBlock: 64, NumBlocks: 16}

// plan is what a workload needs from the deployment: how long the
// stream-everything bootstrap runs, how much model-driven history is
// simulated before measuring, and how many trace days that takes.
type plan struct {
	trainFor time.Duration
	warmFor  time.Duration
	days     int
}

// planFor sizes the deployment. live-ingest advances the clock during
// the measured phase, so its traces must also cover seconds of pacing.
func planFor(wl string, seconds int) plan {
	switch wl {
	case liveIngest:
		p := plan{trainFor: 6 * time.Hour, warmFor: 18 * time.Hour}
		paced := time.Duration(seconds) * time.Second / ingestPeriod * chunk
		p.days = int((p.trainFor+p.warmFor+paced)/(24*time.Hour)) + 2
		return p
	default:
		return plan{trainFor: 24 * time.Hour, warmFor: 12 * time.Hour, days: 2}
	}
}

// campusSpec is the scenario spec of a workload's deployment. The
// deployment keeps the campus preset's own seed: --seed drives the
// request schedule, so runs with different seeds put different load on
// the same universe, and set-up work does not change with the seed.
func campusSpec(wl string, days int) (scenario.Spec, error) {
	spec, err := scenario.Preset("campus")
	if err != nil {
		return scenario.Spec{}, err
	}
	spec.Deployment.Proxies = proxies
	spec.Deployment.MotesPerProxy = motesPerProxy
	spec.Deployment.Days = days
	spec.Deployment.Sites = 1
	if wl == liveIngest {
		spec.Deployment.Sites = 2
		spec.Deployment.Store = "flash"
		spec.Deployment.Aging = "wavelet"
		spec.Deployment.Wired = true
	}
	return spec, spec.Validate()
}

// deployment is one built, warmed deployment: an in-process network, or
// (live-ingest) a coordinator plus one site joined over loopback TCP.
type deployment struct {
	cfg core.Config
	net *core.Network        // the in-process network, or the coordinator's own window
	co  *cluster.Coordinator // live-ingest only
	eng serve.Engine

	stopSite context.CancelFunc
	siteDone chan error

	gen, build, join, warm time.Duration
	advanceUS              []float64 // wall time of each warm-up chunk
}

// deploy generates, builds and warms one deployment, timing each part.
func deploy(ctx context.Context, wl string, p plan) (*deployment, error) {
	spec, err := campusSpec(wl, p.days)
	if err != nil {
		return nil, err
	}
	d := &deployment{}
	t := time.Now()
	sc, err := scenario.Generate(spec)
	if err != nil {
		return nil, err
	}
	d.gen = time.Since(t)
	d.cfg = sc.Config

	if wl != liveIngest {
		t = time.Now()
		n, err := core.Build(d.cfg)
		if err != nil {
			return nil, err
		}
		d.build = time.Since(t)
		d.net, d.eng = n, n
		t = time.Now()
		if _, err := n.Bootstrap(p.trainFor, bootstrapBins, d.cfg.Delta); err != nil {
			d.close()
			return nil, fmt.Errorf("bootstrap: %w", err)
		}
		err = d.warmUp(ctx, p.warmFor, func(ctx context.Context, c time.Duration) error { n.Run(c); return nil })
		d.warm = time.Since(t)
		return d, err
	}

	d.cfg.StoreFlash = ingestFlash
	t = time.Now()
	co, err := cluster.Listen(cluster.TCP{}, "127.0.0.1:0", d.cfg, cluster.Options{Sites: 2})
	if err != nil {
		return nil, err
	}
	d.build = time.Since(t)
	d.co, d.net, d.eng = co, co.Network(), co
	t = time.Now()
	siteCtx, cancel := context.WithCancel(ctx)
	d.stopSite, d.siteDone = cancel, make(chan error, 1)
	go func() { d.siteDone <- cluster.Serve(siteCtx, cluster.TCP{}, co.Addr(), d.cfg) }()
	if err := co.AcceptSites(ctx); err != nil {
		d.close()
		return nil, fmt.Errorf("cluster join: %w", err)
	}
	d.join = time.Since(t)
	t = time.Now()
	if err := co.Bootstrap(ctx, p.trainFor, bootstrapBins, d.cfg.Delta); err != nil {
		d.close()
		return nil, fmt.Errorf("cluster bootstrap: %w", err)
	}
	err = d.warmUp(ctx, p.warmFor, co.Run)
	d.warm = time.Since(t)
	return d, err
}

// warmUp advances the model-driven history in chunk-sized steps,
// recording each step's wall time (core.advance_us).
func (d *deployment) warmUp(ctx context.Context, total time.Duration, advance func(context.Context, time.Duration) error) error {
	for left := total; left > 0; left -= chunk {
		t := time.Now()
		if err := advance(ctx, min(chunk, left)); err != nil {
			d.close()
			return fmt.Errorf("warm-up: %w", err)
		}
		d.advanceUS = append(d.advanceUS, usOf(time.Since(t).Nanoseconds()))
	}
	return nil
}

// advance moves the whole deployment one chunk forward.
func (d *deployment) advance(ctx context.Context) error {
	if d.co != nil {
		return d.co.Run(ctx, chunk)
	}
	d.net.Run(chunk)
	return nil
}

// setupTime is the whole set-up wall time.
func (d *deployment) setupTime() time.Duration { return d.gen + d.build + d.join + d.warm }

// truth is the oracle's ground-truth lookup.
func (d *deployment) truth(m radio.NodeID, t simtime.Time) float64 {
	v, err := d.net.Truth(m, t)
	if err != nil {
		panic(err) // the oracle only asks about motes the deployment has
	}
	return v
}

// interval is mote m's sample interval.
func (d *deployment) interval(m radio.NodeID) time.Duration {
	mi := int(m) - 1
	if mi < len(d.cfg.MoteSampleIntervals) && d.cfg.MoteSampleIntervals[mi] > 0 {
		return d.cfg.MoteSampleIntervals[mi]
	}
	return d.cfg.SampleInterval
}

// close tears the deployment down and waits for the site to exit.
func (d *deployment) close() {
	if d.co != nil {
		d.co.Close()
	} else if d.net != nil {
		d.net.Close()
	}
	if d.stopSite != nil {
		d.stopSite()
		if err := <-d.siteDone; err != nil && !errors.Is(err, context.Canceled) {
			// The coordinator closed the session first; any other exit
			// is worth seeing but does not void the measurement.
			fmt.Printf("note: cluster site exited: %v\n", err)
		}
		d.stopSite = nil
	}
}

// allMotes lists the fleet's mote ids (global index + 1).
func allMotes() []radio.NodeID {
	ids := make([]radio.NodeID, fleet)
	for i := range ids {
		ids[i] = radio.NodeID(i + 1)
	}
	return ids
}
