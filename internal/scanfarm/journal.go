// The scan journal: a durable.Log of completed and quarantined shards,
// the persistence layer behind `hsdscan -resume`.
//
//	header frame:  magic "HSDSJh1\n" | gob(Meta)
//	record frames: magic "HSDSJr1\n" | gob(ShardRecord)
//
// A SIGKILLed scan loses at most a torn final frame, which resume
// discards; see internal/durable for the frame and its guarantees.

package scanfarm

import (
	"errors"
	"fmt"

	"github.com/golitho/hsd/internal/core"
	"github.com/golitho/hsd/internal/durable"
	"github.com/golitho/hsd/internal/geom"
)

// Meta binds a journal to one specific scan. Every field must match for
// a resume to be sound: a different chip, window geometry, or shard
// layout would make recorded shard IDs meaningless.
type Meta struct {
	Chip      string
	Shapes    int
	Bounds    geom.Rect
	ClipNM    int
	CoreFrac  float64
	StrideNM  int
	ShardRows int
	NumShards int
	SkipEmpty bool
	Detector  string
}

// ShardState is the terminal state of a journaled shard.
type ShardState uint8

const (
	// ShardDone is a fully scanned shard with its findings recorded.
	ShardDone ShardState = iota + 1
	// ShardQuarantined is a poison shard that exhausted its attempts;
	// its findings are unknown and Err records the last failure.
	ShardQuarantined
)

// String implements fmt.Stringer.
func (s ShardState) String() string {
	switch s {
	case ShardDone:
		return "done"
	case ShardQuarantined:
		return "quarantined"
	default:
		return fmt.Sprintf("state(%d)", uint8(s))
	}
}

// ShardRecord is one journaled shard outcome.
type ShardRecord struct {
	ShardID  int
	State    ShardState
	Attempts int
	// Err is the last failure message of a quarantined shard.
	Err string
	// Findings are the shard's flagged windows in window-enumeration
	// order (row-major within the shard). Empty for quarantined shards.
	Findings []core.Finding
}

// ErrJournalMismatch is returned when a journal's Meta does not match
// the scan being resumed.
var ErrJournalMismatch = errors.New("scanfarm: journal belongs to a different scan")

// journalFormat is the scan journal file format; a frame payload is
// bounded at 1 GiB.
var journalFormat = durable.NewLogFormat[Meta, ShardRecord](
	"scanfarm: journal", "HSDSJh1\n", "HSDSJr1\n", 1<<30, ErrJournalMismatch)

// Journal is an open, appendable scan journal. Append is safe for
// concurrent use.
type Journal = durable.Log[Meta, ShardRecord]

// CreateJournal creates (truncating) a journal at path and durably
// writes its header frame.
func CreateJournal(path string, meta Meta) (*Journal, error) {
	return journalFormat.Create(path, meta)
}

// LoadJournal reads a journal, tolerating a torn tail: it returns the
// header Meta, every intact shard record keyed by shard ID, and the
// byte offset where the intact prefix ends (the truncation point for
// re-opening in append mode). A later duplicate record for the same
// shard ID wins, though the coordinator never writes duplicates.
func LoadJournal(path string) (Meta, map[int]ShardRecord, int64, error) {
	meta, records, offset, err := journalFormat.Load(path)
	if err != nil {
		return meta, nil, 0, err
	}
	return meta, byShard(records), offset, nil
}

// ResumeJournal loads the journal at path, validates it against meta,
// truncates any torn tail, and re-opens it for appending. It returns
// the journal and the intact shard records to skip.
func ResumeJournal(path string, meta Meta) (*Journal, map[int]ShardRecord, error) {
	j, records, err := journalFormat.Resume(path, meta)
	if err != nil {
		return nil, nil, err
	}
	return j, byShard(records), nil
}

func byShard(records []ShardRecord) map[int]ShardRecord {
	m := make(map[int]ShardRecord, len(records))
	for _, rec := range records {
		m[rec.ShardID] = rec
	}
	return m
}
