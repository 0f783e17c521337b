// HTTP plumbing of the MDD service: a Go 1.22 pattern mux translating
// the JSON wire types of api.go onto the server core. Streaming uses
// newline-delimited JSON (one Event per line, flushed per event) so a
// client replays per-iteration residuals live and can resume from any
// sequence number after a disconnect.
package mddserve

import (
	"encoding/json"
	"errors"
	"net/http"
	"strconv"

	"repro/internal/obs"
)

// TenantHeader names the request header carrying the caller's tenant
// identity for per-tenant admission control.
const TenantHeader = "X-MDD-Tenant"

// Handler returns the service's HTTP API:
//
//	POST   /api/v1/jobs             submit a JobSpec, 202 + SubmitResponse
//	GET    /api/v1/jobs/{id}        poll a JobStatus
//	GET    /api/v1/jobs/{id}/events NDJSON event stream (?from=N resumes)
//	DELETE /api/v1/jobs/{id}        cancel, returns the JobStatus
//	GET    /api/v1/healthz          liveness probe
//	GET    /api/v1/stats            deterministic server accounting
//	GET    /api/v1/metrics          obs registry snapshot
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /api/v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /api/v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /api/v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("DELETE /api/v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /api/v1/healthz", s.handleHealthz)
	mux.HandleFunc("GET /api/v1/stats", s.handleStats)
	mux.HandleFunc("GET /api/v1/metrics", s.handleMetrics)
	return mux
}

// writeJSON writes v with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v) // response already committed; nothing to report to
}

// writeError maps a service error code onto its HTTP status.
func writeError(w http.ResponseWriter, code, msg string) {
	status := http.StatusInternalServerError
	switch code {
	case CodeBadRequest:
		status = http.StatusBadRequest
	case CodeTooLarge:
		status = http.StatusRequestEntityTooLarge
	case CodeQueueFull, CodeTenantLimit:
		status = http.StatusTooManyRequests
		// One retry hint for both admission causes: the queue drains on
		// job completion, so "soon" is the honest answer.
		w.Header().Set("Retry-After", "1")
	case CodeNotFound:
		status = http.StatusNotFound
	case CodeShutdown:
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, ErrorBody{Code: code, Message: msg})
}

// maxBodyBytes bounds submit payloads (413 beyond it); specs are a few
// hundred bytes.
const maxBodyBytes = 1 << 20

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, CodeTooLarge, "job spec exceeds the body cap: "+err.Error())
			return
		}
		writeError(w, CodeBadRequest, "malformed job spec: "+err.Error())
		return
	}
	id, err := s.submit(spec, r.Header.Get(TenantHeader))
	if err != nil {
		var se *submitErr
		if errors.As(err, &se) {
			writeError(w, se.code, se.msg)
		} else {
			writeError(w, CodeInternal, err.Error())
		}
		return
	}
	writeJSON(w, http.StatusAccepted, SubmitResponse{ID: id})
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	st, ok := s.status(r.PathValue("id"))
	if !ok {
		writeError(w, CodeNotFound, "no such job "+r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	st, ok := s.cancel(r.PathValue("id"))
	if !ok {
		writeError(w, CodeNotFound, "no such job "+r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// handleEvents streams the job's events as NDJSON from the requested
// sequence number, blocking for new events until the job reaches a
// terminal state (whose state event is the stream's last record).
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobByID(r.PathValue("id"))
	if !ok {
		writeError(w, CodeNotFound, "no such job "+r.PathValue("id"))
		return
	}
	from := 0
	if q := r.URL.Query().Get("from"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil || n < 0 {
			writeError(w, CodeBadRequest, "from must be a non-negative integer")
			return
		}
		from = n
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	next := from
	for {
		// Copy pending events under the lock, then write outside it so a
		// slow client never blocks the job's publishers.
		j.mu.Lock()
		var pending []Event
		if next < len(j.events) {
			pending = append(pending, j.events[next:]...)
		}
		terminal := j.state.Terminal()
		wait := j.notify
		j.mu.Unlock()

		for _, ev := range pending {
			if err := enc.Encode(ev); err != nil {
				return // client went away
			}
		}
		next += len(pending)
		if flusher != nil && len(pending) > 0 {
			flusher.Flush()
		}
		if terminal && len(pending) == 0 {
			return
		}
		if !terminal {
			select {
			case <-wait:
			case <-r.Context().Done():
				return
			}
		}
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, obs.TakeSnapshot())
}
