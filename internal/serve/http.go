package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"

	"github.com/icsnju/metamut-go/internal/flight"
)

// Error codes carried in structured API error responses. Quota
// rejections and admission deferrals are distinguishable from spec
// mistakes so clients can decide between "fix the request" and "retry
// later".
const (
	CodeBadSpec          = "bad_spec"
	CodeQuotaConcurrency = "quota_concurrency"
	CodeQuotaSteps       = "quota_steps"
	CodeAdmission        = "admission_deferred"
	CodeNotFound         = "not_found"
	CodeConflict         = "conflict"
	CodeInternal         = "internal"
	CodeOverloaded       = "overloaded"
)

// Error is the service's structured error: a machine-readable code,
// a human message, and the HTTP status it maps to. It serializes as
//
//	{"error": {"code": "quota_steps", "message": "..."}}
//
// Overload sheds additionally carry RetryAfter, a hint in seconds the
// handler mirrors into a Retry-After header.
type Error struct {
	Code       string `json:"code"`
	Message    string `json:"message"`
	RetryAfter int    `json:"retry_after_seconds,omitempty"`
	Status     int    `json:"-"`
}

// Error implements the error interface.
func (e *Error) Error() string { return e.Message }

// writeError renders any error as the structured JSON shape; non-*Error
// causes become internal errors.
func writeError(w http.ResponseWriter, err error) {
	var se *Error
	if !errors.As(err, &se) {
		se = &Error{Code: CodeInternal, Message: err.Error(), Status: 500}
	}
	w.Header().Set("Content-Type", "application/json")
	if se.RetryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(se.RetryAfter))
	}
	w.WriteHeader(se.Status)
	json.NewEncoder(w).Encode(map[string]*Error{"error": se})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// StatusResponse is GET /jobs/{id}/status: the durable record plus —
// for live jobs — the flight console snapshot.
type StatusResponse struct {
	Job     JobRecord            `json:"job"`
	Console *flight.ConsoleState `json:"console,omitempty"`
}

// SubmitResponse is POST /jobs.
type SubmitResponse struct {
	ID string `json:"id"`
}

// Health is GET /healthz.
type Health struct {
	ActiveJobs int    `json:"active_jobs"`
	Tenants    int    `json:"tenants"`
	Breaker    string `json:"breaker"`
	// DiskLevel is the supervisor's disk-pressure degradation rung
	// ("nominal" when healthy; see internal/serve/heal).
	DiskLevel string `json:"disk_level"`
	// PausedTenants lists tenants benched by the overload governor.
	PausedTenants []string `json:"paused_tenants,omitempty"`
}

// subscribe taps a live job's flight journal. Terminal jobs have no
// live feed — their full journal is on disk and in /results.
func (d *Daemon) subscribe(id string) (<-chan []byte, func(), error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	rec := d.ledger.Job(id)
	if rec == nil {
		return nil, nil, &Error{Code: CodeNotFound, Status: 404, Message: fmt.Sprintf("serve: no job %s", id)}
	}
	j := d.jobs[id]
	if j == nil {
		return nil, nil, &Error{Code: CodeConflict, Status: 409, Message: fmt.Sprintf(
			"serve: job %s is %s; its journal is complete (see /jobs/%s/results)", id, rec.State, id)}
	}
	if d.heal.ShedSSE() {
		return nil, nil, &Error{Code: CodeOverloaded, Status: 503,
			RetryAfter: d.heal.Config().RetryAfterSeconds,
			Message: fmt.Sprintf("serve: live journal taps shed (disk level %s)",
				d.heal.Level())}
	}
	ch, cancel := j.camp.Flight.Subscribe()
	return ch, cancel, nil
}

// Handler mounts the service API:
//
//	POST /jobs              submit a JobSpec, returns {"id": ...}
//	GET  /jobs[?tenant=T]   list job records
//	GET  /jobs/{id}         one job record
//	GET  /jobs/{id}/status  record + live flight console
//	GET  /jobs/{id}/stream  SSE flight journal feed (live jobs)
//	POST /jobs/{id}/cancel  stop at the next barrier
//	GET  /jobs/{id}/results triage report (terminal jobs)
//	GET  /healthz           daemon health
func (d *Daemon) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", d.handleSubmit)
	mux.HandleFunc("GET /jobs", d.handleList)
	mux.HandleFunc("GET /jobs/{id}", d.handleJob)
	mux.HandleFunc("GET /jobs/{id}/status", d.handleStatus)
	mux.HandleFunc("GET /jobs/{id}/stream", d.handleStream)
	mux.HandleFunc("POST /jobs/{id}/cancel", d.handleCancel)
	mux.HandleFunc("GET /jobs/{id}/results", d.handleResults)
	mux.HandleFunc("GET /healthz", d.handleHealth)
	return mux
}

// decodeJobSpec reads the JSON job spec a submission carries (its
// first megabyte, first value); Submit normalizes and validates it.
func decodeJobSpec(r io.Reader) (JobSpec, error) {
	var spec JobSpec
	err := json.NewDecoder(io.LimitReader(r, 1<<20)).Decode(&spec)
	return spec, err
}

func (d *Daemon) handleSubmit(w http.ResponseWriter, r *http.Request) {
	spec, err := decodeJobSpec(r.Body)
	if err != nil {
		writeError(w, &Error{Code: CodeBadSpec, Status: 400, Message: "serve: bad job spec JSON: " + err.Error()})
		return
	}
	id, err := d.Submit(spec)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, SubmitResponse{ID: id})
}

func (d *Daemon) handleList(w http.ResponseWriter, r *http.Request) {
	jobs := d.Jobs(r.URL.Query().Get("tenant"))
	if jobs == nil {
		jobs = []JobRecord{}
	}
	writeJSON(w, http.StatusOK, jobs)
}

func (d *Daemon) handleJob(w http.ResponseWriter, r *http.Request) {
	rec, ok := d.Job(r.PathValue("id"))
	if !ok {
		writeError(w, &Error{Code: CodeNotFound, Status: 404, Message: "serve: no job " + r.PathValue("id")})
		return
	}
	writeJSON(w, http.StatusOK, rec)
}

func (d *Daemon) handleStatus(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	rec, ok := d.Job(id)
	if !ok {
		writeError(w, &Error{Code: CodeNotFound, Status: 404, Message: "serve: no job " + id})
		return
	}
	writeJSON(w, http.StatusOK, StatusResponse{Job: rec, Console: d.Console(id)})
}

// handleStream reuses the flight journal encoder: each SSE data payload
// is exactly one journal line, same as /debug/campaign/stream.
func (d *Daemon) handleStream(w http.ResponseWriter, r *http.Request) {
	ch, cancel, err := d.subscribe(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	defer cancel()
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, &Error{Code: CodeInternal, Status: 500, Message: "serve: streaming unsupported"})
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	io.WriteString(w, ": flight journal stream\n\n")
	flusher.Flush()
	for {
		select {
		case <-r.Context().Done():
			return
		case line, open := <-ch:
			if !open {
				return
			}
			fmt.Fprintf(w, "data: %s\n\n", line)
			flusher.Flush()
		}
	}
}

func (d *Daemon) handleCancel(w http.ResponseWriter, r *http.Request) {
	if err := d.Cancel(r.PathValue("id")); err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, map[string]string{"status": "cancelling"})
}

// handleResults serves the persisted triage report. Only terminal jobs
// have one — a live job's answer is still being computed.
func (d *Daemon) handleResults(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	rec, ok := d.Job(id)
	if !ok {
		writeError(w, &Error{Code: CodeNotFound, Status: 404, Message: "serve: no job " + id})
		return
	}
	if !rec.State.Terminal() {
		writeError(w, &Error{Code: CodeConflict, Status: 409, Message: fmt.Sprintf(
			"serve: job %s is %s; results arrive in a terminal state", id, rec.State)})
		return
	}
	data, err := os.ReadFile(filepath.Join(JobDir(d.cfg.StateDir, id), TriageFile))
	if err != nil {
		writeError(w, &Error{Code: CodeInternal, Status: 500, Message: "serve: triage report unavailable: " + err.Error()})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(data)
}

func (d *Daemon) handleHealth(w http.ResponseWriter, _ *http.Request) {
	d.mu.Lock()
	active := 0
	tenants := map[string]bool{}
	for _, rec := range d.ledger.Jobs {
		if !rec.State.Terminal() {
			active++
			tenants[rec.Tenant] = true
		}
	}
	h := Health{
		ActiveJobs:    active,
		Tenants:       len(tenants),
		Breaker:       d.breaker.State().String(),
		DiskLevel:     d.heal.Level().String(),
		PausedTenants: d.drr.Paused(),
	}
	d.mu.Unlock()
	writeJSON(w, http.StatusOK, h)
}
