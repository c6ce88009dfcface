package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
)

// handleSweepLaunch is POST /sweeps: expand the cross-product, admit the
// deduplicated children, answer 202 with the initial status. Bound
// violations and empty/all-invalid products are structured 400s naming
// the offending field; a draining registry is 503 with Retry-After.
func (s *Server) handleSweepLaunch(w http.ResponseWriter, r *http.Request) {
	var spec SweepSpec
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		jsonError(w, http.StatusBadRequest, "bad sweep spec: %v", err)
		return
	}
	sw, err := s.reg.LaunchSweep(spec)
	if err != nil {
		writeLaunchError(w, err)
		return
	}
	w.Header().Set("Location", fmt.Sprintf("/sweeps/%d", sw.ID))
	writeJSON(w, http.StatusAccepted, sw.Status())
}

// handleSweep is GET /sweeps/{id}: the aggregate status with per-child
// states, digests and skip reasons.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	sw, ok := fromPath(w, r, "sweep", s.reg.GetSweep)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, sw.Status())
}

// handleSweepTable is GET /sweeps/{id}/table: the deterministic TSV
// result table. A sweep still running is 409 — the table is only
// meaningful (and only byte-stable) once every child is terminal.
func (s *Server) handleSweepTable(w http.ResponseWriter, r *http.Request) {
	sw, ok := fromPath(w, r, "sweep", s.reg.GetSweep)
	if !ok {
		return
	}
	if !sw.State().Terminal() {
		jsonError(w, http.StatusConflict, "sweep %d still running; the table is available at completion", sw.ID)
		return
	}
	w.Header().Set("Content-Type", "text/tab-separated-values; charset=utf-8")
	fmt.Fprint(w, sw.Table())
}

// handleSweepStream is GET /sweeps/{id}/stream: SSE progress. Each event
// is the compact progress rollup (state, per-state counts, memo hits,
// degraded flag); the stream closes with an "end" event carrying the full
// terminal status. Event ids count emitted progress events.
func (s *Server) handleSweepStream(w http.ResponseWriter, r *http.Request) {
	sw, ok := fromPath(w, r, "sweep", s.reg.GetSweep)
	if !ok {
		return
	}
	sse, ok := s.openSSE(w, func(err error) {
		s.log.Warn("slow sweep stream consumer disconnected", "sweep_id", sw.ID, "err", err)
	})
	if !ok {
		return
	}
	id := -1
	if !follow(r.Context(), &sw.lifecycle, func() bool {
		id++
		return sse.push("id: %d\nevent: progress\ndata: %s\n\n", id, sw.progress())
	}) {
		return
	}
	final, _ := json.Marshal(sw.Status())
	sse.push("event: end\ndata: %s\n\n", final)
}
