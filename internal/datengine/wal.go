// The learn journal: a durable.Log write-ahead log of the
// active-learning loop's state, the persistence layer behind
// `hsdlearn -resume`.
//
//	header frame:  magic "HSDLWh1\n" | gob(Meta)
//	record frames: magic "HSDLWr1\n" | gob(Record)
//
// A SIGKILLed loop loses at most a torn final frame, which resume
// discards; see internal/durable for the frame and its guarantees.
//
// Record semantics (the idempotency contract, see DESIGN.md §17):
// every stage of the loop journals its outcome before the next stage
// may run, and replaying the record sequence reconstructs exactly which
// work remains. Candidate records are deduplicated by content
// fingerprint at ingest AND at replay, so at-least-once ingestion is
// safe; a batch record pins the selected fingerprints, so a resumed
// loop labels the same batch the crashed one chose; label and
// quarantine records are keyed by (batch, fingerprint), so a resumed
// labeling pass skips exactly the samples already durable; the shipped
// record is terminal for its batch.

package datengine

import (
	"errors"
	"fmt"

	"github.com/golitho/hsd/internal/durable"
	"github.com/golitho/hsd/internal/layout"
)

// Meta binds a WAL to one learning loop. The detector identity must
// match for a resume to be sound: candidates mined under one detector
// family are not interchangeable training signal for another.
type Meta struct {
	Detector string
}

// RecordKind discriminates the journaled stage outcomes.
type RecordKind uint8

const (
	// RecCandidate is one mined clip entering the candidate queue.
	RecCandidate RecordKind = iota + 1
	// RecBatch pins a selected batch: its ID and member fingerprints in
	// selection order.
	RecBatch
	// RecLabel is one oracle verdict for a batch member.
	RecLabel
	// RecQuarantine marks a batch member the oracle could not label
	// after its attempt budget; the sample is permanently excluded.
	RecQuarantine
	// RecShipped is the terminal record of a batch: the retrained model
	// was shipped through the gate, or rejected by it.
	RecShipped
)

// String implements fmt.Stringer.
func (k RecordKind) String() string {
	switch k {
	case RecCandidate:
		return "candidate"
	case RecBatch:
		return "batch"
	case RecLabel:
		return "label"
	case RecQuarantine:
		return "quarantine"
	case RecShipped:
		return "shipped"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Batch terminal outcomes recorded in RecShipped.
const (
	// OutcomeShipped means the retrained model passed the golden-set
	// gate and was installed.
	OutcomeShipped = "shipped"
	// OutcomeRejected means the gate (or an empty labeled set) refused
	// the batch; its candidates stay consumed and the loop moves on.
	OutcomeRejected = "rejected"
)

// Record is one journaled event. A single struct covers every kind so
// the gob stream stays self-describing; unused fields are zero.
type Record struct {
	Kind RecordKind

	// Candidate / Label / Quarantine: the member's content fingerprint.
	FP layout.Fingerprint
	// Candidate: the canonical (origin-translated) clip and the mining
	// context that surfaced it.
	Clip   layout.Clip
	Score  float64
	Stage  string
	Source string

	// Batch / Label / Quarantine / Shipped: the owning batch.
	BatchID int
	// Batch: member fingerprints in selection order.
	FPs []layout.Fingerprint

	// Label: the oracle verdict.
	Hotspot bool

	// Quarantine: attempts burned and the last failure.
	Attempts int
	Err      string

	// Shipped: terminal outcome, the model artifact, and the gate's
	// reasoning when rejected.
	Outcome   string
	ModelPath string
	Reason    string
}

// ErrWALMismatch is returned when a WAL's Meta does not match the loop
// being resumed.
var ErrWALMismatch = errors.New("datengine: WAL belongs to a different learning loop")

// walFormat is the learn WAL file format; a frame payload is bounded
// at 1 GiB.
var walFormat = durable.NewLogFormat[Meta, Record](
	"datengine: WAL", "HSDLWh1\n", "HSDLWr1\n", 1<<30, ErrWALMismatch)

// WAL is an open, appendable learn journal. Append is safe for
// concurrent use.
type WAL = durable.Log[Meta, Record]

// CreateWAL creates (truncating) a WAL at path and durably writes its
// header frame.
func CreateWAL(path string, meta Meta) (*WAL, error) { return walFormat.Create(path, meta) }

// LoadWAL reads a WAL, tolerating a torn tail: it returns the header
// Meta, every intact record in append order, and the byte offset where
// the intact prefix ends (the truncation point for re-opening in append
// mode).
func LoadWAL(path string) (Meta, []Record, int64, error) { return walFormat.Load(path) }

// ResumeWAL loads the WAL at path, validates it against meta, truncates
// any torn tail, and re-opens it for appending. It returns the WAL and
// the intact records to replay.
func ResumeWAL(path string, meta Meta) (*WAL, []Record, error) {
	return walFormat.Resume(path, meta)
}
