package durable

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sync"
)

// LogFormat declares an append-only log file: one header frame whose
// payload is a gob-encoded M binding the log to one job, then record
// frames of gob-encoded R appended and fsynced one at a time.
//
// A torn tail, the log's crash mode, shows as a short or CRC-failing
// final frame; Load discards it and everything before it is intact by
// construction, so a killed job resumes from its last durable record.
type LogFormat[M comparable, R any] struct {
	name           string
	header, record []byte
	maxPayload     uint64
	mismatch       error
}

// NewLogFormat declares a log format and pins the gob type ids of M,
// then R. name prefixes every error ("scanfarm: journal"); Resume
// wraps mismatch when the file's header differs from the job's.
func NewLogFormat[M comparable, R any](name, headerMagic, recordMagic string, maxPayload uint64, mismatch error) *LogFormat[M, R] {
	pinGob(new(M))
	pinGob(new(R))
	return &LogFormat[M, R]{
		name:       name,
		header:     []byte(headerMagic),
		record:     []byte(recordMagic),
		maxPayload: maxPayload,
		mismatch:   mismatch,
	}
}

// Log is an open, appendable log. Append is safe for concurrent use.
type Log[M comparable, R any] struct {
	format *LogFormat[M, R]
	path   string
	mu     sync.Mutex
	f      *os.File
}

// Create creates (truncating) a log at path and durably writes its
// header frame: the file and its directory entry are fsynced.
func (lf *LogFormat[M, R]) Create(path string, meta M) (*Log[M, R], error) {
	payload, err := encodeGob(meta)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", lf.name, err)
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("%s: create: %w", lf.name, err)
	}
	if err := WriteFrame(f, lf.header, payload); err != nil {
		f.Close()
		return nil, fmt.Errorf("%s: %w", lf.name, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, fmt.Errorf("%s: fsync: %w", lf.name, err)
	}
	syncDir(path)
	return &Log[M, R]{format: lf, path: path, f: f}, nil
}

// Load reads a log, tolerating a torn tail: it returns the header
// Meta, every intact record in append order, and the byte offset where
// the intact prefix ends (the truncation point for appending again). A
// damaged header is an error; a damaged record ends the intact prefix.
func (lf *LogFormat[M, R]) Load(path string) (M, []R, int64, error) {
	var meta M
	f, err := os.Open(path)
	if err != nil {
		return meta, nil, 0, fmt.Errorf("%s: open: %w", lf.name, err)
	}
	defer f.Close()
	br := bufio.NewReader(f)

	payload, offset, err := ReadFrame(br, lf.header, lf.maxPayload)
	if err == nil {
		err = decodeGob(payload, &meta)
	}
	if err != nil {
		return meta, nil, 0, fmt.Errorf("%s header: %w", lf.name, err)
	}
	var records []R
	for {
		payload, n, err := ReadFrame(br, lf.record, lf.maxPayload)
		if err != nil {
			break // clean end, or a torn/corrupt tail to truncate
		}
		var rec R
		if err := decodeGob(payload, &rec); err != nil {
			break
		}
		records = append(records, rec)
		offset += n
	}
	return meta, records, offset, nil
}

// Resume loads the log at path, refuses it unless its header equals
// meta, truncates any torn tail, and reopens it for appending. It
// returns the log and the intact records to replay.
func (lf *LogFormat[M, R]) Resume(path string, meta M) (*Log[M, R], []R, error) {
	got, records, offset, err := lf.Load(path)
	if err != nil {
		return nil, nil, err
	}
	if got != meta {
		return nil, nil, fmt.Errorf("%w: file has %+v, want %+v", lf.mismatch, got, meta)
	}
	f, err := os.OpenFile(path, os.O_WRONLY, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: reopen: %w", lf.name, err)
	}
	if err := f.Truncate(offset); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("%s: truncate torn tail: %w", lf.name, err)
	}
	if _, err := f.Seek(offset, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("%s: seek: %w", lf.name, err)
	}
	return &Log[M, R]{format: lf, path: path, f: f}, records, nil
}

// Append durably writes one record: the frame is written and fsynced
// before Append returns, so the record survives any later crash.
func (l *Log[M, R]) Append(rec R) error {
	payload, err := encodeGob(rec)
	if err != nil {
		return fmt.Errorf("%s: %w", l.format.name, err)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := WriteFrame(l.f, l.format.record, payload); err != nil {
		return fmt.Errorf("%s: %w", l.format.name, err)
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("%s: fsync: %w", l.format.name, err)
	}
	return nil
}

// Path returns the log's file path.
func (l *Log[M, R]) Path() string { return l.path }

// Close closes the underlying file.
func (l *Log[M, R]) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.f.Close()
}
