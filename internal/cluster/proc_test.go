package cluster

// The two-process smoke: build the real prestod binary (with -race, so
// the whole cluster path runs under the detector), launch a coordinator
// and a joiner as separate OS processes over TCP loopback, drive a
// multi-site AGG plus a standing query through them, and assert the
// merged aggregate is bit-identical both to the same binary run
// single-process with the same flags and to a single-process run of the
// same seed computed in this test.

import (
	"bufio"
	"context"

	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"presto/internal/core"
	"presto/internal/gen"
	"presto/internal/query"
)

// prestodFlags is the shared deployment shape; coordinator and joiner
// must agree (the config fingerprint enforces it).
var prestodFlags = []string{"-proxies", "4", "-motes", "2", "-shards", "4", "-days", "2"}

func buildPrestod(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "prestod")
	cmd := exec.Command("go", "build", "-race", "-o", bin, "presto/cmd/prestod")
	cmd.Dir = "../.."
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building prestod: %v\n%s", err, out)
	}
	return bin
}

func TestTwoProcessClusterSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("two-process smoke is not short")
	}
	bin := buildPrestod(t)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()

	// -queries 0: the NOW/PAST query mix would add scatter frames on top
	// of the one-per-round ledger asserted below.
	driverArgs := []string{"-every", "1h", "-queries", "0"}
	coordArgs := append(append([]string{"-listen", "127.0.0.1:0", "-sites", "2"}, driverArgs...), prestodFlags...)
	coord := exec.CommandContext(ctx, bin, coordArgs...)
	stdout, err := coord.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	coord.Stderr = coord.Stdout
	if err := coord.Start(); err != nil {
		t.Fatal(err)
	}
	defer coord.Process.Kill()

	// Scan the coordinator's output: the bound address first, then the
	// result lines.
	addrRe := regexp.MustCompile(`listening on (\S+),`)
	aggRe := regexp.MustCompile(`cluster agg: mean=(\S+) bound=(\S+) count=(\d+)`)
	framesRe := regexp.MustCompile(`site 1 sent=\d+ recv=\d+ scatter=(\d+) partials=(\d+)`)
	snapsRe := regexp.MustCompile(`standing query: (\d+) fleet snapshots`)
	lines := make(chan string, 64)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			lines <- sc.Text()
		}
		close(lines)
	}()
	readLine := func(what string) string {
		select {
		case l, ok := <-lines:
			if !ok {
				t.Fatalf("coordinator output ended waiting for %s", what)
			}
			return l
		case <-ctx.Done():
			t.Fatalf("timed out waiting for %s", what)
		}
		return ""
	}

	var addr string
	for addr == "" {
		if m := addrRe.FindStringSubmatch(readLine("listen address")); m != nil {
			addr = m[1]
		}
	}

	joiner := exec.CommandContext(ctx, bin, append([]string{"-join", addr}, prestodFlags...)...)
	joinOut, err := joiner.CombinedOutput()
	if err != nil {
		t.Fatalf("joiner failed: %v\n%s", err, joinOut)
	}
	var mean, bound float64
	var count, scatter, partials, snaps int
	var aggLine string
	gotAgg, gotFrames, gotSnaps := false, false, false
	for l := range lines {
		if m := aggRe.FindStringSubmatch(l); m != nil {
			aggLine = l
			mean, _ = strconv.ParseFloat(m[1], 64)
			bound, _ = strconv.ParseFloat(m[2], 64)
			count, _ = strconv.Atoi(m[3])
			gotAgg = true
		}
		if m := framesRe.FindStringSubmatch(l); m != nil {
			scatter, _ = strconv.Atoi(m[1])
			partials, _ = strconv.Atoi(m[2])
			gotFrames = true
		}
		if m := snapsRe.FindStringSubmatch(l); m != nil {
			snaps, _ = strconv.Atoi(m[1])
			gotSnaps = true
		}
	}
	if err := coord.Wait(); err != nil {
		t.Fatalf("coordinator exited: %v", err)
	}
	if !gotAgg || !gotFrames || !gotSnaps {
		t.Fatalf("missing output: agg=%v frames=%v snaps=%v", gotAgg, gotFrames, gotSnaps)
	}

	// Every standing round completed (12 = half the post-bootstrap day,
	// hourly), and the frame ledger shows exactly one scatter per round:
	// the one-shot AGG plus the 12 continuous rounds.
	if snaps != 12 {
		t.Errorf("standing query delivered %d snapshots, want 12", snaps)
	}
	if want := 1 + snaps; scatter != want || partials != want {
		t.Errorf("site 1 frames scatter=%d partials=%d, want exactly %d each (one per round)",
			scatter, partials, want)
	}

	// Single-process reference with the same seed and schedule as
	// prestod's: train 24h (half of 2 days), run half the remainder
	// quietly, then the trailing 2h mean over all motes.
	ref := singleProcessReference(t)
	if mean != ref.Value || bound != ref.ErrBound || count != ref.Count {
		t.Errorf("2-process AGG (%.17g ± %.17g, n=%d) != single-process (%.17g ± %.17g, n=%d)",
			mean, bound, count, ref.Value, ref.ErrBound, ref.Count)
	}

	// Same flags, same answer: the binary run single-process prints the
	// identical AGG line.
	soloOut, err := exec.CommandContext(ctx, bin, append(driverArgs, prestodFlags...)...).CombinedOutput()
	if err != nil {
		t.Fatalf("single-process prestod failed: %v\n%s", err, soloOut)
	}
	soloLine := ""
	for _, l := range strings.Split(string(soloOut), "\n") {
		if aggRe.MatchString(l) {
			soloLine = l
		}
	}
	if soloLine != aggLine {
		t.Errorf("single-process AGG line %q != coordinator's %q", soloLine, aggLine)
	}
}

// singleProcessReference replicates prestod's deployment and schedule
// inside one process.
func singleProcessReference(t *testing.T) query.SetResult {
	t.Helper()
	genCfg := gen.DefaultTempConfig()
	genCfg.Sensors = 8
	genCfg.Days = 2
	genCfg.Seed = 1
	traces, err := gen.Temperature(genCfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.Seed = 1
	cfg.Proxies = 4
	cfg.MotesPerProxy = 2
	cfg.Shards = 4
	cfg.Delta = 1.0
	cfg.Radio.LossProb = 0.02 // prestod's default
	cfg.Traces = traces
	n, err := core.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if _, err := n.Bootstrap(24*time.Hour, 48, 1.0); err != nil {
		t.Fatal(err)
	}
	n.Run(12 * time.Hour)
	res, err := n.Client().QueryOne(context.Background(), query.Spec{
		Type: query.Agg, Agg: query.Mean, Precision: 1.0, Trailing: 2 * time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Err != nil || res.Count == 0 {
		t.Fatalf("reference unusable: %+v", res)
	}
	return res
}
