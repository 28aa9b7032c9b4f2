package server

// DefaultDebugJobRing bounds the recent-job summaries kept for
// GET /v1/debug/jobs when Config.DebugJobRing is not positive.
const DefaultDebugJobRing = 64

// jobSummary is one entry in the recent-jobs debug ring (an obs.Ring):
// enough to correlate a job with its logs (trace_id) and judge its
// outcome at a glance, without holding the full result. Unlike the jobs
// map (TTL- and count-bounded, holds full results), the ring is a cheap
// always-on flight recorder of the last N terminal jobs.
type jobSummary struct {
	ID        string  `json:"id"`
	Kind      string  `json:"kind,omitempty"`
	TraceID   string  `json:"trace_id"`
	Status    string  `json:"status"`
	Prog      string  `json:"prog,omitempty"`
	Optimizer string  `json:"optimizer,omitempty"`
	Cached    bool    `json:"cached"`
	ElapsedMS float64 `json:"elapsed_ms"`
	Error     string  `json:"error,omitempty"`
}
