package cluster

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"presto/internal/query"
	"presto/internal/serve"
)

// TestStatszClusterSection: a real 2-site coordinator fronted directly by
// serve.Server grows the /statsz cluster section — both sites alive with
// their domain windows, the remote site's scatter traffic broken out by
// frame kind, and no wire counters for the coordinator's own window.
func TestStatszClusterSection(t *testing.T) {
	co, shutdown := startCluster(t, NewLoopback(), testConfig(t, 4, 2, 4), 2)
	defer shutdown()
	ctx := context.Background()
	if err := co.Start(ctx); err != nil {
		t.Fatal(err)
	}
	if err := co.Run(ctx, time.Hour); err != nil {
		t.Fatal(err)
	}
	res, err := co.Client().QueryOne(ctx, query.Spec{
		Type: query.Agg, Agg: query.Mean, Precision: 1.0, Trailing: 30 * time.Minute,
	})
	if err != nil || len(res.SiteErrs) != 0 {
		t.Fatalf("aggregate: err=%v site errors=%v", err, res.SiteErrs)
	}

	srv := serve.New(co, serve.Config{})
	defer srv.Close()
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/statsz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/statsz status %d: %s", rec.Code, rec.Body)
	}
	var st serve.Stats
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	ch := st.Cluster
	if ch == nil {
		t.Fatalf("/statsz has no cluster section: %s", rec.Body)
	}
	if ch.SitesAlive != 2 || len(ch.Sites) != 2 {
		t.Fatalf("sites alive=%d rows=%d, want 2 and 2", ch.SitesAlive, len(ch.Sites))
	}
	if ch.LeaseInstant != co.Now().String() {
		t.Errorf("lease instant %q, want %q", ch.LeaseInstant, co.Now())
	}
	local, remote := ch.Sites[0], ch.Sites[1]
	if !reflect.DeepEqual(local.Domains, []int{0, 1}) || !reflect.DeepEqual(remote.Domains, []int{2, 3}) {
		t.Errorf("domains site0=%v site1=%v, want [0 1] and [2 3]", local.Domains, remote.Domains)
	}
	if got := remote.SentKindBytes["scatter"]; got == 0 {
		t.Errorf("site 1 sent_bytes_by_kind=%v, want a non-zero scatter entry", remote.SentKindBytes)
	}
	if remote.FramesSent == 0 || remote.WireRecvBytes == 0 {
		t.Errorf("site 1 wire counters empty: %+v", remote)
	}
	if local.SentKindBytes != nil || local.RecvKindBytes != nil || local.FramesSent != 0 {
		t.Errorf("site 0 has wire counters, want none: %+v", local)
	}
}
