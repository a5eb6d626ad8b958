package registry_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"rowfuse/internal/chipdb"
	"rowfuse/internal/core"
	"rowfuse/internal/dispatch"
	"rowfuse/internal/dispatch/registry"
	"rowfuse/internal/report"
	"rowfuse/internal/resultio"
	"rowfuse/internal/timing"
)

// twoModuleConfig is the standard reduced campaign (2 modules x 3
// patterns x 3 tAggON points).
func twoModuleConfig(t *testing.T) core.StudyConfig {
	t.Helper()
	var mods []chipdb.ModuleInfo
	for _, id := range []string{"S0", "H1"} {
		mi, err := chipdb.ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		mods = append(mods, mi)
	}
	return core.StudyConfig{
		Modules:       mods,
		Sweep:         []time.Duration{timing.TRAS, 7800 * time.Nanosecond, timing.AggOnNineTREFI},
		RowsPerRegion: 2,
		Dies:          1,
		Runs:          1,
	}
}

// oneModuleConfig is a deliberately different campaign (different
// fingerprint, different grid shape) to run concurrently with the
// first.
func oneModuleConfig(t *testing.T) core.StudyConfig {
	t.Helper()
	cfg := twoModuleConfig(t)
	cfg.Modules = cfg.Modules[:1]
	cfg.RowsPerRegion = 3
	return cfg
}

// createCampaign drives the real POST /v1/campaigns wire path.
func createCampaign(t *testing.T, base string, cfg core.StudyConfig, units int, ttl time.Duration) registry.CreateResponse {
	t.Helper()
	body, err := json.Marshal(registry.CreateRequest{
		Campaign: dispatch.NewCampaignSpec(cfg),
		Units:    units,
		TTLMs:    ttl.Milliseconds(),
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/campaigns", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create campaign: %s", resp.Status)
	}
	var cr registry.CreateResponse
	if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
		t.Fatal(err)
	}
	if cr.ID == "" || cr.Token == "" {
		t.Fatalf("create response missing identity: %+v", cr.Meta)
	}
	if cr.Fingerprint != cfg.Fingerprint() {
		t.Fatalf("campaign fingerprint %s, want %s", cr.Fingerprint, cfg.Fingerprint())
	}
	return cr
}

func renderStudy(t *testing.T, s *core.Study) []byte {
	t.Helper()
	var buf bytes.Buffer
	rows, err := s.Table2()
	if err != nil {
		t.Fatal(err)
	}
	if err := report.Table2(&buf, rows); err != nil {
		t.Fatal(err)
	}
	fig4, err := s.Fig4()
	if err != nil {
		t.Fatal(err)
	}
	if err := report.Fig4(&buf, fig4); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// renderFromClient folds a campaign's merged checkpoint into a fresh
// study and renders the acceptance outputs.
func renderFromClient(t *testing.T, c *dispatch.Client, cfg core.StudyConfig) []byte {
	t.Helper()
	cp, err := c.Merged()
	if err != nil {
		t.Fatal(err)
	}
	cells, err := cp.CellMap()
	if err != nil {
		t.Fatal(err)
	}
	study := core.NewStudy(cfg)
	if err := study.Seed(cells); err != nil {
		t.Fatal(err)
	}
	return renderStudy(t, study)
}

// TestCampaignServiceTwoCampaignsEndToEnd is the multi-tenancy
// acceptance path: two campaigns with different specs run
// concurrently through one coordinator, each drained by its own
// worker over the namespaced HTTP API, and each renders byte-
// identical to an unsharded single-process run of its config.
func TestCampaignServiceTwoCampaignsEndToEnd(t *testing.T) {
	cfgA, cfgB := twoModuleConfig(t), oneModuleConfig(t)
	wantA := func() []byte {
		s := core.NewStudy(cfgA)
		if err := s.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		return renderStudy(t, s)
	}()
	wantB := func() []byte {
		s := core.NewStudy(cfgB)
		if err := s.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		return renderStudy(t, s)
	}()

	reg, err := registry.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	srv := httptest.NewServer(reg.Handler())
	defer srv.Close()

	ca := createCampaign(t, srv.URL, cfgA, 3, time.Minute)
	cb := createCampaign(t, srv.URL, cfgB, 2, time.Minute)
	if ca.ID == cb.ID {
		t.Fatalf("two campaigns share the id %s", ca.ID)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i, meta := range []registry.CreateResponse{ca, cb} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl, err := dispatch.DialCampaign(srv.URL, meta.ID, meta.Token, nil)
			if err != nil {
				errs[i] = err
				return
			}
			n, err := dispatch.Work(ctx, cl, dispatch.WorkerOptions{Name: "w" + meta.ID, Log: t.Logf})
			if err == nil && n < 1 {
				err = errors.New("worker drained zero units")
			}
			errs[i] = err
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	clA, err := dispatch.DialCampaign(srv.URL, ca.ID, ca.Token, nil)
	if err != nil {
		t.Fatal(err)
	}
	clB, err := dispatch.DialCampaign(srv.URL, cb.ID, cb.Token, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := renderFromClient(t, clA, cfgA); !bytes.Equal(got, wantA) {
		t.Fatal("campaign A rendering differs from its unsharded run")
	}
	if got := renderFromClient(t, clB, cfgB); !bytes.Equal(got, wantB) {
		t.Fatal("campaign B rendering differs from its unsharded run")
	}
}

// TestCampaignServiceAuthAndLifecycle covers the namespace hygiene
// and durability of the service: cross-campaign access is rejected
// with distinct sentinels, cancellation is durable, and a restarted
// registry reopens every campaign where it stood.
func TestCampaignServiceAuthAndLifecycle(t *testing.T) {
	dir := t.TempDir()
	reg, err := registry.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(reg.Handler())

	ca := createCampaign(t, srv.URL, twoModuleConfig(t), 3, time.Minute)
	cb := createCampaign(t, srv.URL, oneModuleConfig(t), 2, time.Minute)

	// Unknown campaign: even the manifest read fails, with the unknown-
	// campaign sentinel (not the bad-token one).
	if _, err := dispatch.DialCampaign(srv.URL, "c-ffffffff-00000000", "whatever", nil); !errors.Is(err, dispatch.ErrUnknownCampaign) {
		t.Fatalf("unknown campaign id: %v", err)
	}
	// Wrong token (campaign B's token against campaign A): reads are
	// open — the dial itself succeeds — but every worker mutation is
	// rejected with the bad-token sentinel before unit state is
	// touched.
	cross, err := dispatch.DialCampaign(srv.URL, ca.ID, cb.Token, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cross.Acquire("intruder"); !errors.Is(err, dispatch.ErrBadCampaignToken) {
		t.Fatalf("cross-campaign acquire: %v", err)
	}

	// A legitimate worker takes a lease and submits one real-shaped
	// (empty-aggregate) unit, so the restart below has progress to
	// preserve.
	clA, err := dispatch.DialCampaign(srv.URL, ca.ID, ca.Token, nil)
	if err != nil {
		t.Fatal(err)
	}
	m, err := clA.Manifest()
	if err != nil {
		t.Fatal(err)
	}
	l, err := clA.Acquire("alpha")
	if err != nil {
		t.Fatal(err)
	}
	// The cross-campaign client cannot submit into A's lease either.
	if err := cross.Submit(l, unitCheckpoint(t, m, l.Cells), 0); !errors.Is(err, dispatch.ErrBadCampaignToken) {
		t.Fatalf("cross-campaign submit: %v", err)
	}
	if err := clA.Submit(l, unitCheckpoint(t, m, l.Cells), 0); err != nil {
		t.Fatal(err)
	}

	// Durable cancellation of campaign B over the wire.
	req, err := http.NewRequest(http.MethodDelete, srv.URL+"/v1/campaigns/"+cb.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("cancel: %s", resp.Status)
	}
	clB, err := dispatch.DialCampaign(srv.URL, cb.ID, cb.Token, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := clB.Acquire("beta"); !errors.Is(err, dispatch.ErrCanceled) {
		t.Fatalf("acquire on canceled campaign: %v", err)
	}

	// Coordinator restart: close everything, reopen the same state
	// directory, and the service resumes where it stood.
	srv.Close()
	if err := reg.Close(); err != nil {
		t.Fatal(err)
	}
	reg2, err := registry.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer reg2.Close()
	srv2 := httptest.NewServer(reg2.Handler())
	defer srv2.Close()

	infos, err := reg2.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 2 {
		t.Fatalf("restarted registry lists %d campaigns, want 2", len(infos))
	}
	byID := map[string]registry.Info{}
	for _, info := range infos {
		byID[info.ID] = info
	}
	if got := byID[ca.ID].Status.Done; got != 1 {
		t.Fatalf("campaign A lost its submitted unit across restart: done=%d", got)
	}
	if !byID[cb.ID].Canceled {
		t.Fatal("campaign B's cancellation did not survive the restart")
	}
	// The old worker token still authenticates after the restart.
	clA2, err := dispatch.DialCampaign(srv2.URL, ca.ID, ca.Token, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := clA2.Acquire("alpha"); err != nil {
		t.Fatalf("restarted service refused the surviving token: %v", err)
	}
}

// unitCheckpoint builds a structurally complete (empty-aggregate)
// submission for a lease's cells.
func unitCheckpoint(t *testing.T, m dispatch.Manifest, cells []int) *resultio.Checkpoint {
	t.Helper()
	cfg, err := m.Campaign.StudyConfig()
	if err != nil {
		t.Fatal(err)
	}
	grid := core.NewStudy(cfg).Cells()
	out := make(map[core.CellKey]core.AggregateState, len(cells))
	for _, idx := range cells {
		out[grid[idx]] = core.AggregateState{}
	}
	return resultio.NewCheckpoint(m.Fingerprint, core.ShardPlan{}, out)
}

// TestRetentionSweep drives the campaign GC with an injected clock: a
// canceled campaign is first marked, then — once it has sat finished
// for the retention TTL — closed and deleted from both memory and
// disk, while a live campaign is never touched.
func TestRetentionSweep(t *testing.T) {
	dir := t.TempDir()
	reg, err := registry.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()

	now := time.Unix(1_700_000_000, 0)
	reg.SetClock(func() time.Time { return now })

	doomed, err := reg.Create(dispatch.NewManifest(twoModuleConfig(t), 3, time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	live, err := reg.Create(dispatch.NewManifest(oneModuleConfig(t), 2, time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Cancel(doomed.ID); err != nil {
		t.Fatal(err)
	}

	// First sweep only starts the doomed campaign's retention clock.
	removed, err := reg.Sweep(time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if len(removed) != 0 {
		t.Fatalf("first sweep removed %v, want none (mark only)", removed)
	}

	// Inside the TTL the campaign survives.
	now = now.Add(30 * time.Minute)
	if removed, err = reg.Sweep(time.Hour); err != nil {
		t.Fatal(err)
	}
	if len(removed) != 0 {
		t.Fatalf("sweep inside the TTL removed %v", removed)
	}

	// Past the TTL the campaign goes: memory, disk, and API.
	now = now.Add(time.Hour)
	if removed, err = reg.Sweep(time.Hour); err != nil {
		t.Fatal(err)
	}
	if len(removed) != 1 || removed[0] != doomed.ID {
		t.Fatalf("sweep removed %v, want [%s]", removed, doomed.ID)
	}
	if _, err := reg.Describe(doomed.ID); !errors.Is(err, dispatch.ErrUnknownCampaign) {
		t.Fatalf("Describe after GC = %v, want ErrUnknownCampaign", err)
	}
	if _, err := os.Stat(filepath.Join(dir, doomed.ID)); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("campaign directory survived GC: %v", err)
	}

	// The live campaign is untouched, now and on every future sweep.
	if _, err := reg.Describe(live.ID); err != nil {
		t.Fatal(err)
	}
	now = now.Add(24 * time.Hour)
	if removed, err = reg.Sweep(time.Hour); err != nil {
		t.Fatal(err)
	}
	if len(removed) != 0 {
		t.Fatalf("sweep removed live campaign: %v", removed)
	}
	if _, err := os.Stat(filepath.Join(dir, live.ID)); err != nil {
		t.Fatal(err)
	}
}

// TestTokenRotation exercises the re-keying protocol end to end over
// the wire: one rotation keeps the outgoing token alive for a grace
// window, a second rotation revokes the original entirely, and the
// rotated tokens survive a coordinator restart.
func TestTokenRotation(t *testing.T) {
	dir := t.TempDir()
	reg, err := registry.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(reg.Handler())

	ca := createCampaign(t, srv.URL, twoModuleConfig(t), 3, time.Minute)
	token0 := ca.Token

	// probe answers "does this token authorize worker mutations?"
	// without consuming a unit grant: a heartbeat on a lease nobody
	// holds passes the token check and then fails with ErrLeaseLost,
	// while a bad token is rejected before unit state is touched.
	probe := func(base, token string) error {
		cl, err := dispatch.DialCampaign(base, ca.ID, token, nil)
		if err != nil {
			return err
		}
		err = cl.Heartbeat(dispatch.Lease{Unit: 0, Worker: "probe", Token: "nobody"})
		if errors.Is(err, dispatch.ErrLeaseLost) {
			return nil
		}
		return err
	}
	rotate := func(base, id string) (registry.Meta, int) {
		t.Helper()
		resp, err := http.Post(base+"/v1/campaigns/"+id+"/rotate-token", "", nil)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var meta registry.Meta
		if resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&meta); err != nil {
				t.Fatal(err)
			}
		}
		return meta, resp.StatusCode
	}

	if err := probe(srv.URL, token0); err != nil {
		t.Fatalf("original token refused before any rotation: %v", err)
	}

	// First rotation: a fresh token is minted, and both generations
	// authorize during the grace window.
	meta1, code := rotate(srv.URL, ca.ID)
	if code != http.StatusOK {
		t.Fatalf("rotate: status %d", code)
	}
	token1 := meta1.Token
	if token1 == "" || token1 == token0 {
		t.Fatalf("rotation minted token %q (old %q)", token1, token0)
	}
	if meta1.PrevToken != token0 {
		t.Fatalf("rotation retained PrevToken %q, want the outgoing %q", meta1.PrevToken, token0)
	}
	if err := probe(srv.URL, token1); err != nil {
		t.Fatalf("fresh token refused: %v", err)
	}
	if err := probe(srv.URL, token0); err != nil {
		t.Fatalf("outgoing token refused inside its grace window: %v", err)
	}

	// Second rotation: the original token is now fully revoked; the
	// middle and newest generations still work.
	meta2, code := rotate(srv.URL, ca.ID)
	if code != http.StatusOK {
		t.Fatalf("second rotate: status %d", code)
	}
	token2 := meta2.Token
	if meta2.PrevToken != token1 {
		t.Fatalf("second rotation PrevToken %q, want %q", meta2.PrevToken, token1)
	}
	if err := probe(srv.URL, token0); !errors.Is(err, dispatch.ErrBadCampaignToken) {
		t.Fatalf("doubly-rotated token: %v, want ErrBadCampaignToken", err)
	}
	if err := probe(srv.URL, token1); err != nil {
		t.Fatalf("grace-window token refused: %v", err)
	}
	if err := probe(srv.URL, token2); err != nil {
		t.Fatalf("current token refused: %v", err)
	}

	// Rotating an unknown campaign is a 404, not a minted token.
	if _, code := rotate(srv.URL, "c-ffffffff-00000000"); code != http.StatusNotFound {
		t.Fatalf("rotate unknown campaign: status %d, want 404", code)
	}

	// The rotation is durable: a restarted coordinator honors exactly
	// the same two generations.
	srv.Close()
	if err := reg.Close(); err != nil {
		t.Fatal(err)
	}
	reg2, err := registry.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer reg2.Close()
	srv2 := httptest.NewServer(reg2.Handler())
	defer srv2.Close()
	if err := probe(srv2.URL, token2); err != nil {
		t.Fatalf("restart lost the rotated token: %v", err)
	}
	if err := probe(srv2.URL, token1); err != nil {
		t.Fatalf("restart lost the grace-window token: %v", err)
	}
	if err := probe(srv2.URL, token0); !errors.Is(err, dispatch.ErrBadCampaignToken) {
		t.Fatalf("revoked token resurrected by restart: %v", err)
	}
}
