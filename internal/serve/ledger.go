package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"sort"

	"github.com/icsnju/metamut-go/internal/durable"
)

// LedgerVersion guards the on-disk ledger format.
const LedgerVersion = 1

// JobState is a job's lifecycle state. The machine is
//
//	PENDING → RUNNING → DONE
//	                  → FAILED
//	                  → QUARANTINED
//	PENDING/RUNNING   → CANCELLED
//
// Terminal states (DONE, FAILED, CANCELLED, QUARANTINED) deliver a
// triage report of whatever the campaign found; only DONE means the
// full budget ran. QUARANTINED is the supervision verdict: the job's
// slices faulted past the strike limit and the daemon stopped
// rescheduling it, preserving its ledger entry, partial triage, and
// flight journal.
type JobState string

// Job lifecycle states.
const (
	Pending     JobState = "PENDING"
	Running     JobState = "RUNNING"
	Done        JobState = "DONE"
	Failed      JobState = "FAILED"
	Cancelled   JobState = "CANCELLED"
	Quarantined JobState = "QUARANTINED"
)

// Terminal reports whether the state accepts no further work.
func (s JobState) Terminal() bool {
	return s == Done || s == Failed || s == Cancelled || s == Quarantined
}

// JobRecord is one job's ledger entry: the spec plus the coordinator's
// accounting. Everything here is durable — the record is what restart
// recovery trusts.
type JobRecord struct {
	ID     string   `json:"id"`
	Seq    int      `json:"seq"` // submission order (FIFO within a tenant)
	Tenant string   `json:"tenant"`
	State  JobState `json:"state"`
	Spec   JobSpec  `json:"spec"`
	// Done/Epochs/Edges/Crashes mirror the campaign's last barrier.
	Done    int `json:"done"`
	Epochs  int `json:"epochs"`
	Edges   int `json:"edges"`
	Crashes int `json:"crashes"`
	// Error carries the failure cause for FAILED jobs and the final
	// strike cause for QUARANTINED ones.
	Error string `json:"error,omitempty"`
	// Strikes is the job's accumulated supervision strike count.
	Strikes int `json:"strikes,omitempty"`
	// JournalCapped records that disk-pressure degradation discarded
	// part of this job's flight journal: the on-disk journal is a valid
	// prefix, not the full stream, and stays capped for the job's
	// lifetime (resuming appends after a gap would corrupt repair).
	JournalCapped bool `json:"journal_capped,omitempty"`
	// SSEDropped is the lifetime count of journal events dropped from
	// this job's live SSE taps (slow or shed subscribers).
	SSEDropped int64 `json:"sse_dropped,omitempty"`
}

// Ledger is the daemon's durable job table. It is a plain value —
// the Daemon serializes access — persisted atomically as one JSON file
// so a kill at any instant leaves either the old or the new ledger,
// never a torn one.
type Ledger struct {
	Version int          `json:"version"`
	NextSeq int          `json:"next_seq"`
	Jobs    []*JobRecord `json:"jobs"`
	// StepsCommitted tracks each tenant's lifetime submitted step
	// budget (the quota denominator), serialized as sorted pairs so the
	// encoding is deterministic.
	StepsCommitted []TenantSteps `json:"steps_committed,omitempty"`
}

// TenantSteps is one tenant's lifetime committed step budget.
type TenantSteps struct {
	Tenant string `json:"tenant"`
	Steps  int    `json:"steps"`
}

// NewLedger returns an empty ledger.
func NewLedger() *Ledger {
	return &Ledger{Version: LedgerVersion, NextSeq: 1}
}

// Job returns the record with the given id, or nil.
func (l *Ledger) Job(id string) *JobRecord {
	for _, j := range l.Jobs {
		if j.ID == id {
			return j
		}
	}
	return nil
}

// Committed returns the tenant's lifetime committed steps.
func (l *Ledger) Committed(tenant string) int {
	for _, ts := range l.StepsCommitted {
		if ts.Tenant == tenant {
			return ts.Steps
		}
	}
	return 0
}

// Commit books a tenant's submitted step budget against its lifetime
// quota, keeping the pairs sorted by tenant.
func (l *Ledger) Commit(tenant string, steps int) {
	for i := range l.StepsCommitted {
		if l.StepsCommitted[i].Tenant == tenant {
			l.StepsCommitted[i].Steps += steps
			return
		}
	}
	l.StepsCommitted = append(l.StepsCommitted, TenantSteps{Tenant: tenant, Steps: steps})
	sort.Slice(l.StepsCommitted, func(i, j int) bool {
		return l.StepsCommitted[i].Tenant < l.StepsCommitted[j].Tenant
	})
}

// Active counts a tenant's non-terminal jobs (the concurrency quota).
func (l *Ledger) Active(tenant string) int {
	n := 0
	for _, j := range l.Jobs {
		if j.Tenant == tenant && !j.State.Terminal() {
			n++
		}
	}
	return n
}

// ledgerPath names the ledger file inside a state directory.
func ledgerPath(stateDir string) string {
	return filepath.Join(stateDir, "ledger.json")
}

// JobDir names one job's state directory (checkpoint, flight journal,
// spec, triage report).
func JobDir(stateDir, id string) string {
	return filepath.Join(stateDir, "jobs", id)
}

// Per-job file names inside JobDir.
const (
	CheckpointFile = "checkpoint.json"
	JournalFile    = "flight.jsonl"
	TriageFile     = "triage.json"
	SpecFile       = "spec.json"
)

// LoadLedger reads the ledger from a state directory; no file at all
// is an empty ledger (first boot). A torn primary falls back to .prev
// (durable.Read), which at worst forgets the latest admissions or state
// transitions that recovery re-parks from their checkpoints; two torn
// generations in a row defeat it, so the chaos tear period stays >= 2.
// A lone .prev that does not decode is an error: an empty ledger would
// re-issue job IDs, and Submit would wipe the old jobs' directories.
func LoadLedger(stateDir string) (l *Ledger, err error) {
	_, _, err = durable.Read(ledgerPath(stateDir), func(data []byte) (err error) {
		l, err = decodeLedger(data)
		return err
	})
	if errors.Is(err, fs.ErrNotExist) {
		return NewLedger(), nil
	}
	return l, err
}

func decodeLedger(data []byte) (*Ledger, error) {
	var l Ledger
	if err := json.Unmarshal(data, &l); err != nil {
		return nil, err
	}
	if l.Version != LedgerVersion {
		return nil, fmt.Errorf("version %d, want %d", l.Version, LedgerVersion)
	}
	return &l, nil
}

// Save writes the ledger with durable.Write, keeping the ledger it
// replaces as the .prev generation.
func (l *Ledger) Save(stateDir string) error {
	return l.SaveWith(stateDir, nil)
}

// SaveWith is Save with a fault-injection hook: transform, when
// non-nil, may rewrite or reject the serialized bytes before they hit
// disk (the chaos harness tears them). A torn save still rotates, so
// it leaves the previous generation intact for LoadLedger's fallback.
func (l *Ledger) SaveWith(stateDir string, transform func([]byte) ([]byte, error)) error {
	data, err := json.MarshalIndent(l, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if transform != nil {
		if data, err = transform(data); err != nil {
			return err
		}
	}
	return durable.Write(ledgerPath(stateDir), data, true)
}
