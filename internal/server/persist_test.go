package server

import (
	"net/http"
	"net/http/httptest"
	"testing"

	"linrec/internal/core"
	"linrec/internal/segment"
)

// newPersistentServer boots a server whose system runs on a durable
// segment store rooted at dir, wiring the manager into Config.Persist
// the way linrecd -data-dir does.
func newPersistentServer(t *testing.T, dir, program string) (*Server, *httptest.Server) {
	t.Helper()
	mgr, err := segment.Open(dir)
	if err != nil {
		t.Fatalf("segment.Open: %v", err)
	}
	sys, err := loadSystem(program, core.Options{Persist: mgr})
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	s := New(Config{System: sys, Persist: mgr})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// TestPersistObservability: a persistent server reports the storage
// manager through /v1/stats and /metrics, and a restarted server shows
// recovery provenance (recovered=1, rows described by the manifest)
// while an in-memory server omits the block entirely.
func TestPersistObservability(t *testing.T) {
	dir := t.TempDir()

	// Cold start: fresh directory, initial snapshot published at boot.
	s1, ts1 := newPersistentServer(t, dir, chainProgram(3))
	st := s1.Stats()
	if st.Persist == nil {
		t.Fatalf("/v1/stats persist block missing on persistent server")
	}
	if st.Persist.Recovered {
		t.Fatalf("cold start reported as recovered")
	}
	if st.Persist.Publishes != 1 || st.Persist.Generation != 1 {
		t.Fatalf("cold start: publishes=%d generation=%d, want 1/1", st.Persist.Publishes, st.Persist.Generation)
	}

	// A fact batch makes its version durable before the swap is visible:
	// one log record, synced once, in the same manifest generation.
	before := st.Persist
	postJSON(t, ts1.URL+"/v1/facts", FactsRequest{Facts: "edge(c3,c4)."}).Body.Close()
	st = s1.Stats()
	if st.Persist.Generation != 1 || st.Persist.SnapshotVersion != 2 {
		t.Fatalf("after facts: generation=%d version=%d, want 1/2", st.Persist.Generation, st.Persist.SnapshotVersion)
	}
	if st.Persist.LogRecords != 1 || st.Persist.LogBytes == 0 || st.Persist.Fsyncs != before.Fsyncs+1 ||
		st.Persist.BytesWritten != before.BytesWritten+st.Persist.LogBytes || st.Persist.ChainLinks != 1 {
		t.Fatalf("after facts: %+v, want one log record, one fsync and one chain link", st.Persist)
	}

	m := scrape(t, ts1.URL)
	if got := m["linrec_persist_generation"]; got != 1 {
		t.Fatalf("linrec_persist_generation = %v, want 1", got)
	}
	if got := m["linrec_persist_snapshot_version"]; got != 2 {
		t.Fatalf("linrec_persist_snapshot_version = %v, want 2", got)
	}
	if got := m["linrec_persist_recovered"]; got != 0 {
		t.Fatalf("linrec_persist_recovered = %v, want 0 on cold start", got)
	}
	if got := m[`linrec_persist_segments_total{op="written"}`]; got != float64(st.Persist.SegmentsWritten) {
		t.Fatalf("segments written gauge = %v, stats say %d", got, st.Persist.SegmentsWritten)
	}
	// The write path's other bytes and its flushes are counted too: the
	// fact batch interned one new constant (c4), which its log record
	// carries, so neither the symbol table nor the manifest was written.
	if st.Persist.SymtabBytes != before.SymtabBytes || st.Persist.ManifestBytes != before.ManifestBytes || st.Persist.SymtabBytes == 0 {
		t.Fatalf("a logged write rewrote the symbol table or the manifest: %+v", st.Persist)
	}
	for series, want := range map[string]int64{
		"linrec_persist_bytes_written_total":          st.Persist.BytesWritten,
		"linrec_persist_log_records_total":            st.Persist.LogRecords,
		"linrec_persist_log_bytes_written_total":      st.Persist.LogBytes,
		"linrec_persist_symtab_bytes_written_total":   st.Persist.SymtabBytes,
		"linrec_persist_manifest_bytes_written_total": st.Persist.ManifestBytes,
		"linrec_persist_fsyncs_total":                 st.Persist.Fsyncs,
	} {
		if got := m[series]; got != float64(want) {
			t.Fatalf("%s = %v, stats say %d", series, got, want)
		}
	}
	ts1.Close()

	// Warm restart: same directory, same program. Boot must recover the
	// published snapshot (version 2, edge(c3,c4) included) without
	// recomputing, and say so in both surfaces.
	s2, ts2 := newPersistentServer(t, dir, chainProgram(3))
	st = s2.Stats()
	if st.Persist == nil || !st.Persist.Recovered {
		t.Fatalf("warm restart did not report recovery: %+v", st.Persist)
	}
	if st.SnapshotVersion != 2 || st.Persist.SnapshotVersion != 2 {
		t.Fatalf("warm restart versions: server=%d persist=%d, want 2/2", st.SnapshotVersion, st.Persist.SnapshotVersion)
	}
	if st.Persist.RecoveredPreds == 0 || st.Persist.RecoveredRows == 0 {
		t.Fatalf("recovery provenance empty: %+v", st.Persist)
	}

	resp := postJSON(t, ts2.URL+"/v1/query", QueryRequest{Query: "path(c0, Y)"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query after recovery: status %d", resp.StatusCode)
	}
	out := decode[QueryResponse](t, resp)
	if out.RowCount != 4 {
		t.Fatalf("recovered closure rows = %d, want 4 (chain extended to c4)", out.RowCount)
	}

	m = scrape(t, ts2.URL)
	if got := m["linrec_persist_recovered"]; got != 1 {
		t.Fatalf("linrec_persist_recovered = %v, want 1 after restart", got)
	}
	if got := m["linrec_persist_lazy_loads_total"]; got < 1 {
		t.Fatalf("lazy loads = %v, want >= 1 after a query touched the store", got)
	}

	// In-memory servers must not grow a persist block or series.
	sMem, tsMem := newTestServer(t, chainProgram(3), Config{})
	if sMem.Stats().Persist != nil {
		t.Fatalf("in-memory server leaked a persist stats block")
	}
	mMem := scrape(t, tsMem.URL)
	if _, ok := mMem["linrec_persist_generation"]; ok {
		t.Fatalf("in-memory server exported persist series")
	}
}
