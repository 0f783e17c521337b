// Wire types of the MDD service: the JSON bodies exchanged between
// cmd/mddserve and internal/mddclient. Everything here is plain data —
// the server logic lives in server.go, the HTTP plumbing in http.go —
// so the typed client can share these definitions without importing any
// server machinery beyond this file's structs.
package mddserve

import "fmt"

// JobType selects which stage of the paper's pipeline a job runs.
type JobType string

// The three job types: Compress reports the footprint of the whole
// compressed kernel (every frequency); TLRMVM runs repeated TLR
// matrix-vector products (MulVec) over the compressed middle frequency
// slice; MDD runs a full fault-tolerant multi-dimensional-deconvolution
// inversion for one virtual source.
const (
	JobCompress JobType = "compress"
	JobTLRMVM   JobType = "tlrmvm"
	JobMDD      JobType = "mdd"
)

// State is the lifecycle state of a job.
type State string

// Job lifecycle: queued → running → one of the three terminal states.
const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// DatasetSpec sizes the synthetic survey a job runs against. Jobs carry
// dataset *specifications*, not dataset payloads: the server synthesizes
// (and caches) the survey deterministically from the spec, the way the
// production facility would share one compressed operator across many
// inversions.
type DatasetSpec struct {
	// NsX, NsY are the source grid dimensions; NrX, NrY the seafloor
	// receiver grid dimensions (20 m spacing, paper depths).
	NsX int `json:"nsx"`
	NsY int `json:"nsy"`
	NrX int `json:"nrx"`
	NrY int `json:"nry"`
	// Nt is the time-axis sample count at 4 ms (power of two).
	Nt int `json:"nt"`
}

// Receivers returns the receiver grid point count.
func (d DatasetSpec) Receivers() int { return d.NrX * d.NrY }

// JobSpec is the submit payload.
type JobSpec struct {
	Type    JobType     `json:"type"`
	Dataset DatasetSpec `json:"dataset"`
	// NB and Tol configure the TLR compression (defaults 8 and 1e-4).
	NB  int     `json:"nb,omitempty"`
	Tol float64 `json:"tol,omitempty"`
	// VS is the virtual-source index of an mdd job.
	VS int `json:"vs,omitempty"`
	// Iters is the LSQR iteration budget of an mdd job (default 10).
	Iters int `json:"iters,omitempty"`
	// Reps is the product count of a tlrmvm job (default 1).
	Reps int `json:"reps,omitempty"`
	// Seed feeds the deterministic input vector of a tlrmvm job.
	Seed int64 `json:"seed,omitempty"`
	// ReturnSolution includes the recovered reflectivity panels in an
	// mdd job's result (interleaved re,im float32 pairs).
	ReturnSolution bool `json:"return_solution,omitempty"`
}

// JobResult is the terminal payload of a successful job. Fields are
// populated per job type.
type JobResult struct {
	// Compress: footprint of the whole kernel, dense and compressed.
	CompressionRatio float64 `json:"compression_ratio,omitempty"`
	DenseBytes       int64   `json:"dense_bytes,omitempty"`
	CompressedBytes  int64   `json:"compressed_bytes,omitempty"`
	// TLRMVM: deterministic output checksum (‖y‖₂ after Reps products).
	YNorm float64 `json:"ynorm,omitempty"`
	// MDD: inversion quality and fault-tolerance accounting.
	InversionNMSE float64   `json:"inversion_nmse,omitempty"`
	FinalResidual float64   `json:"final_residual,omitempty"`
	Iterations    int       `json:"iterations,omitempty"`
	Converged     bool      `json:"converged,omitempty"`
	Restarts      int       `json:"restarts,omitempty"`
	SalvagedIters int       `json:"salvaged_iters,omitempty"`
	Residuals     []float64 `json:"residuals,omitempty"`
	// Solution holds the reflectivity panels as interleaved re,im pairs
	// when the spec set ReturnSolution.
	Solution []float32 `json:"solution,omitempty"`
}

// JobStatus is the poll payload.
type JobStatus struct {
	ID     string     `json:"id"`
	Type   JobType    `json:"type"`
	Tenant string     `json:"tenant"`
	State  State      `json:"state"`
	Error  string     `json:"error,omitempty"`
	Result *JobResult `json:"result,omitempty"`
	// Events is the number of stream events published so far, so a
	// poller knows where to resume a stream from.
	Events int `json:"events"`
}

// EventKind discriminates stream events.
type EventKind string

// Residual events carry one per-iteration solver residual; state events
// mark lifecycle transitions (the terminal one ends the stream).
const (
	EventResidual EventKind = "residual"
	EventState    EventKind = "state"
)

// Event is one NDJSON stream record: one residual per solver iteration,
// each reported once even when a restart re-runs it, interleaved with
// lifecycle transitions.
type Event struct {
	Seq      int       `json:"seq"`
	Kind     EventKind `json:"kind"`
	Iter     int       `json:"iter,omitempty"`
	Residual float64   `json:"residual,omitempty"`
	State    State     `json:"state,omitempty"`
}

// Error codes carried in ErrorBody.Code.
const (
	CodeBadRequest  = "bad_request"
	CodeTooLarge    = "too_large"
	CodeQueueFull   = "queue_full"
	CodeTenantLimit = "tenant_limit"
	CodeNotFound    = "not_found"
	CodeShutdown    = "shutting_down"
	CodeInternal    = "internal"
)

// ErrorBody is the JSON error envelope of every non-2xx response.
type ErrorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// SubmitResponse acknowledges an accepted job.
type SubmitResponse struct {
	ID string `json:"id"`
}

// Stats is the server's own deterministic accounting, exposed for tests
// and capacity checks (obs carries the same data as metrics).
type Stats struct {
	Submitted     int64 `json:"submitted"`
	Completed     int64 `json:"completed"`
	Failed        int64 `json:"failed"`
	Cancelled     int64 `json:"cancelled"`
	RejectsQueue  int64 `json:"rejects_queue"`
	RejectsTenant int64 `json:"rejects_tenant"`
	QueueDepth    int   `json:"queue_depth"`
	// PeakInflight is the high-water mark of queued+running jobs per
	// tenant — the load test's per-tenant-limit witness.
	PeakInflight map[string]int `json:"peak_inflight"`
}

// validate applies structural checks that do not depend on server
// limits; size limits live in Config.validateSize.
func (s *JobSpec) validate() error {
	switch s.Type {
	case JobCompress, JobTLRMVM, JobMDD:
	default:
		return fmt.Errorf("unknown job type %q", s.Type)
	}
	d := s.Dataset
	if d.NsX < 2 || d.NsY < 2 || d.NrX < 2 || d.NrY < 2 {
		return fmt.Errorf("dataset grid %dx%d sources, %dx%d receivers: every dimension must be >= 2",
			d.NsX, d.NsY, d.NrX, d.NrY)
	}
	if d.Nt < 16 || d.Nt&(d.Nt-1) != 0 {
		return fmt.Errorf("nt %d must be a power of two >= 16", d.Nt)
	}
	if s.NB < 0 || s.Tol < 0 || s.Iters < 0 || s.Reps < 0 {
		return fmt.Errorf("nb, tol, iters, and reps must be non-negative")
	}
	if s.Type == JobMDD && (s.VS < 0 || s.VS >= d.Receivers()) {
		return fmt.Errorf("virtual source %d outside [0,%d)", s.VS, d.Receivers())
	}
	return nil
}
