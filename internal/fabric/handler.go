package fabric

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"

	"repro/internal/api"
	"repro/internal/resultcache"
)

// Handler returns the coordinator's HTTP API:
//
//	GET  /healthz            liveness, API/code version and fleet size
//	GET  /v1/workers         per-worker routing state (jobs, failures, cooldown)
//	POST /v1/sweep/{kind}    run any registered sweep kind (api.Kinds);
//	                         body is the same JobRequest the workers accept
//
// A sweep responds with the merged envelope as one JSON document —
// byte-identical to a single worker's /v1/sweep/{kind} body — unless
// the client sends "Accept: text/event-stream", in which case the
// response is an SSE stream: one "job" event per completed job (a
// JobEvent), then a final "done" event carrying the merged envelope,
// or an "error" event if the sweep failed after streaming began.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", c.handleHealth)
	mux.HandleFunc("GET /v1/workers", c.handleWorkers)
	mux.HandleFunc("POST /v1/sweep/{kind}", c.handleSweep)
	return mux
}

// handleHealth reports coordinator liveness, the API and result-cache
// code versions (so operators can detect mixed-version fleets before
// a mid-sweep "base config differs" failure), and the configured
// fleet size.
func (c *Coordinator) handleHealth(w http.ResponseWriter, r *http.Request) {
	api.WriteJSON(w, http.StatusOK, map[string]any{
		"status":      "ok",
		"api":         api.Version,
		"codeversion": resultcache.CodeVersion,
		"workers":     len(c.workers),
	})
}

// handleWorkers reports the fleet's routing state.
func (c *Coordinator) handleWorkers(w http.ResponseWriter, r *http.Request) {
	api.WriteJSON(w, http.StatusOK, map[string]any{"workers": c.Workers()})
}

// handleSweep runs one sweep, streaming progress when the client asks
// for SSE and answering with the single merged document otherwise.
// The request is resolved against the registry up front — rejecting
// before the SSE path commits its 200 keeps every request mistake a
// status code, not a mid-stream error event.
func (c *Coordinator) handleSweep(w http.ResponseWriter, r *http.Request) {
	req, err := api.DecodeJobRequest(r)
	if err != nil {
		api.Error(w, http.StatusBadRequest, err)
		return
	}
	sw, err := c.resolve(r.PathValue("kind"), req)
	if err != nil {
		api.Error(w, http.StatusBadRequest, err)
		return
	}
	flusher, canFlush := w.(http.Flusher)
	if canFlush && strings.Contains(r.Header.Get("Accept"), "text/event-stream") {
		c.streamSweep(w, r, flusher, sw, req)
		return
	}
	env, err := c.runSweep(r.Context(), sw, req, nil)
	if err != nil {
		api.Error(w, errStatus(err), err)
		return
	}
	api.WriteJSON(w, http.StatusOK, env)
}

// streamSweep is the SSE form of handleSweep. The 200 header commits
// before the sweep's outcome is known — SSE's usual bargain — so a
// late failure arrives as an "error" event rather than a status code.
func (c *Coordinator) streamSweep(w http.ResponseWriter, r *http.Request, flusher http.Flusher, sw api.Sweep, req api.JobRequest) {
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()
	env, err := c.runSweep(r.Context(), sw, req, func(ev JobEvent) {
		writeEvent(w, "job", ev)
		flusher.Flush()
	})
	if err != nil {
		writeEvent(w, "error", map[string]string{"error": err.Error()})
		flusher.Flush()
		return
	}
	writeEvent(w, "done", env)
	flusher.Flush()
}

// writeEvent emits one SSE event with a JSON data payload.
func writeEvent(w http.ResponseWriter, event string, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		data = []byte(fmt.Sprintf("%q", err.Error()))
	}
	fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data)
}
