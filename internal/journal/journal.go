package journal

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"log"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/s3wlan/s3wlan/internal/atomicfile"
	"github.com/s3wlan/s3wlan/internal/obs"
	"github.com/s3wlan/s3wlan/internal/trace"
)

// Journal health, exported through the obs registry (surfaced by the
// s3proto health output alongside the protocol.* and domain.* families).
var (
	obsAppends     = obs.GetCounter("journal.appends", "WAL records appended (one per journaled domain mutation)")
	obsAppendBytes = obs.GetCounter("journal.append_bytes", "Framed bytes appended to WAL segments")
	obsAppendErrs  = obs.GetCounter("journal.append_errors", "Failed appends: encode, write or fsync errors")
	obsFsyncs      = obs.GetCounter("journal.fsyncs", "Segment fsyncs (per append under FsyncAlways, per tick under FsyncInterval)")
	obsFsync       = obs.GetHistogram("journal.fsync", "Latency of one segment flush+fsync")
	obsCheckpoints = obs.GetCounter("journal.checkpoints", "Checkpoints written (every CheckpointEvery records, plus forced ones)")
	obsCkptErrs    = obs.GetCounter("journal.checkpoint_errors", "Failed checkpoints (compaction degrades, correctness unaffected)")
	obsCkptHist    = obs.GetHistogram("journal.checkpoint", "Latency of one checkpoint write + segment rotation")
	obsRotations   = obs.GetCounter("journal.rotations", "Segment rotations (one per successful checkpoint)")
	obsReplayed    = obs.GetCounter("journal.recovery.records_replayed", "Records replayed from the WAL tail at recovery")
	obsCorrupt     = obs.GetCounter("journal.recovery.corrupt_skipped", "CRC-corrupt or undecodable frames skipped at recovery")
	obsTorn        = obs.GetCounter("journal.recovery.torn_tails", "Incomplete trailing frames found at recovery (≤1 per segment)")
	obsRecWarns    = obs.GetCounter("journal.recover.warnings", "Tolerated-corruption warnings emitted during recovery (unreadable or damaged checkpoints, unreadable segments, undecodable records)")
	obsRecResyncs  = obs.GetCounter("journal.recover.resyncs", "Magic-scan re-synchronizations after lost framing during recovery")
	obsSeq         = obs.GetGauge("journal.seq", "Last assigned WAL sequence number")
)

const (
	// FrameMagic marks the start of every frame. The two high bytes are
	// non-ASCII, so a JSON payload can never contain the marker and
	// post-corruption re-synchronization is reliable. Encoded little-
	// endian, the first byte on the wire is 0xF5 — also non-ASCII, which
	// lets a shared listener distinguish a framed binary stream from a
	// JSON-lines stream by its first byte (internal/protocol reuses this
	// framing as its binary wire format).
	FrameMagic uint32 = 0xAA5733F5
	// frameMagic is the historical internal spelling.
	frameMagic = FrameMagic
	// FrameHeaderLen is the fixed frame header size: magic, length, CRC.
	FrameHeaderLen = 12
	// frameHeader is the historical internal spelling.
	frameHeader = FrameHeaderLen
	// MaxRecordBytes bounds a single record's payload; a decoded length
	// beyond it is treated as corruption, not an allocation request.
	MaxRecordBytes = 16 << 20
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Checksum returns the CRC-32C (Castagnoli) checksum frames carry —
// exported so other framings built on EncodeFrame/AppendFrame (the
// protocol's binary codec) can validate payloads without re-deriving
// the table.
func Checksum(payload []byte) uint32 {
	return crc32.Checksum(payload, crcTable)
}

// AppendFrame appends payload wrapped in a magic + length + CRC32C frame
// to dst and returns the extended slice — the allocation-free sibling of
// EncodeFrame for callers that reuse a scratch buffer.
func AppendFrame(dst, payload []byte) []byte {
	var hdr [FrameHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:4], FrameMagic)
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[8:12], crc32.Checksum(payload, crcTable))
	dst = append(dst, hdr[:]...)
	return append(dst, payload...)
}

// Op enumerates the journaled domain mutations.
type Op string

const (
	// OpRegister records an AP registration (or a re-hello renewing one:
	// replay updates capacity and last-seen time for a known AP).
	OpRegister Op = "register"
	// OpAssoc records one atomic placement commit — a single association
	// or an AssociateBatch — including any Prev moves.
	OpAssoc Op = "assoc"
	// OpDisassoc records a full disassociation (domain LeaveAll).
	OpDisassoc Op = "disassoc"
	// OpLeave records a partial leave releasing DemandBps of one of the
	// user's sessions (domain Leave multiplicity semantics).
	OpLeave Op = "leave"
	// OpExpire records a lease expiry removing an AP and re-homing its
	// believed users.
	OpExpire Op = "expire"
)

// Placement is one user placement inside an OpAssoc record.
type Placement struct {
	User      trace.UserID `json:"user"`
	AP        trace.APID   `json:"ap"`
	Prev      trace.APID   `json:"prev,omitempty"`
	DemandBps float64      `json:"demand_bps,omitempty"`
}

// Record is one journaled mutation. Seq is assigned by Append and is
// strictly increasing across segments and checkpoints. Epoch is the
// writer's ownership generation (Options.Epoch): in a
// federated deployment every cross-process failover bumps it, so a
// follower tailing the stream can fence out records a superseded owner
// wrote after losing its lease. Single-owner journals leave it zero,
// which keeps their encoded records byte-identical to pre-federation
// journals.
type Record struct {
	Seq         uint64       `json:"seq"`
	Epoch       uint64       `json:"epoch,omitempty"`
	Op          Op           `json:"op"`
	TS          int64        `json:"ts,omitempty"`
	AP          trace.APID   `json:"ap,omitempty"`
	User        trace.UserID `json:"user,omitempty"`
	CapacityBps float64      `json:"capacity_bps,omitempty"`
	Static      bool         `json:"static,omitempty"`
	DemandBps   float64      `json:"demand_bps,omitempty"`
	Placements  []Placement  `json:"placements,omitempty"`
}

// FsyncPolicy selects when appended frames are forced to stable storage.
type FsyncPolicy int

const (
	// FsyncAlways fsyncs after every append: no acknowledged record is
	// ever lost, at the cost of one disk flush per commit.
	FsyncAlways FsyncPolicy = iota
	// FsyncInterval fsyncs on a background tick (Options.FsyncInterval):
	// a crash loses at most the last interval's records.
	FsyncInterval
	// FsyncOff never fsyncs explicitly; the OS flushes at its leisure. A
	// process crash (without an OS crash) still loses nothing once the
	// bytes are written, since the page cache survives the process.
	FsyncOff
)

// ParseFsyncPolicy maps the CLI spelling (always / interval / off) to a
// policy.
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch strings.ToLower(s) {
	case "always":
		return FsyncAlways, nil
	case "interval":
		return FsyncInterval, nil
	case "off":
		return FsyncOff, nil
	}
	return 0, fmt.Errorf("journal: unknown fsync policy %q (want always, interval or off)", s)
}

// String returns the CLI spelling.
func (p FsyncPolicy) String() string {
	switch p {
	case FsyncInterval:
		return "interval"
	case FsyncOff:
		return "off"
	}
	return "always"
}

// File is the subset of *os.File the journal writes segments through.
// Options.OpenFile may substitute a fault-injecting implementation
// (see internal/faults).
type File interface {
	io.Writer
	Sync() error
	Close() error
}

// Options configures a Journal.
type Options struct {
	// Fsync selects the durability/throughput trade-off (default
	// FsyncAlways).
	Fsync FsyncPolicy
	// FsyncInterval is the background flush period under FsyncInterval
	// (default 100ms).
	FsyncInterval time.Duration
	// CheckpointEvery rotates the journal through a checkpoint after
	// this many appended records; 0 disables checkpointing.
	CheckpointEvery int
	// State, when non-nil, writes the owner's full state snapshot for a
	// checkpoint. It is invoked synchronously from Append, so it observes
	// exactly the state as of the record that triggered the checkpoint.
	State func(w io.Writer) error
	// OpenFile creates segment files (default os.Create). Tests inject
	// fault-wrapped files here.
	OpenFile func(path string) (File, error)
	// Logger receives recovery warnings and background-flush errors
	// (default: discard).
	Logger *log.Logger
	// Epoch stamps every appended record with the writer's ownership
	// generation (see Record.Epoch). Zero for single-owner journals.
	Epoch uint64
	// FlushEachAppend flushes the buffered writer after every append
	// even when the fsync policy would not. A replicated journal needs
	// it under FsyncInterval/FsyncOff so tailing followers see records
	// as soon as they are written, not when the 4 KiB buffer happens to
	// spill. FsyncAlways flushes regardless.
	FlushEachAppend bool
}

// Journal is an open write-ahead log rooted at one directory.
type Journal struct {
	dir  string
	opts Options

	mu        sync.Mutex
	f         File
	bw        *bufio.Writer
	seq       uint64 // last assigned sequence number
	epoch     uint64 // stamped into every appended record
	sinceCkpt int
	closed    bool

	stopFlush chan struct{}
	flushDone chan struct{}
}

// RecoveryStats summarizes what Recover (or Open) found.
type RecoveryStats struct {
	// CheckpointSeq is the sequence number of the loaded checkpoint
	// (0 = no checkpoint).
	CheckpointSeq uint64
	// RecordsReplayed counts journal-tail records returned for replay.
	RecordsReplayed int
	// CorruptSkipped counts CRC-corrupt or unparsable frames skipped.
	CorruptSkipped int
	// TornTails counts incomplete trailing frames (≤1 per segment).
	TornTails int
	// Segments counts journal segments scanned.
	Segments int
	// Warnings counts the tolerated-corruption warnings recovery logged:
	// unreadable or damaged checkpoints, unreadable segments, and
	// undecodable records. Surfaced as journal.recover.warnings.
	Warnings int
	// Resyncs counts magic-scan re-synchronizations after lost framing
	// (a damaged header or length). Surfaced as journal.recover.resyncs.
	Resyncs int
}

// Recovery is the reconstructed state handed back by Open: the newest
// valid checkpoint payload (nil when none), and every decodable record
// with a sequence number beyond it, in order.
type Recovery struct {
	Checkpoint []byte
	Records    []Record
	Stats      RecoveryStats
}

// Open recovers the journal in dir (creating it if absent) and opens a
// fresh segment for appending. Appending always starts in a new segment
// so a torn tail left by a crash is never extended in place.
func Open(dir string, opts Options) (*Journal, *Recovery, error) {
	if opts.FsyncInterval <= 0 {
		opts.FsyncInterval = 100 * time.Millisecond
	}
	if opts.OpenFile == nil {
		opts.OpenFile = func(path string) (File, error) { return os.Create(path) }
	}
	if opts.Logger == nil {
		opts.Logger = log.New(io.Discard, "", 0)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("journal: mkdir %s: %w", dir, err)
	}
	rec, err := recoverDir(dir, opts.Logger)
	if err != nil {
		return nil, nil, err
	}
	j := &Journal{dir: dir, opts: opts, epoch: opts.Epoch}
	j.seq = rec.Stats.CheckpointSeq
	if n := len(rec.Records); n > 0 {
		j.seq = rec.Records[n-1].Seq
	}
	if err := j.openSegmentLocked(j.seq + 1); err != nil {
		return nil, nil, err
	}
	if opts.Fsync == FsyncInterval {
		j.stopFlush = make(chan struct{})
		j.flushDone = make(chan struct{})
		go j.flushLoop()
	}
	obsReplayed.Add(int64(rec.Stats.RecordsReplayed))
	obsCorrupt.Add(int64(rec.Stats.CorruptSkipped))
	obsTorn.Add(int64(rec.Stats.TornTails))
	obsRecWarns.Add(int64(rec.Stats.Warnings))
	obsRecResyncs.Add(int64(rec.Stats.Resyncs))
	obsSeq.Set(int64(j.seq))
	return j, rec, nil
}

// Seq returns the last assigned sequence number.
func (j *Journal) Seq() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.seq
}

// Dir returns the journal directory.
func (j *Journal) Dir() string { return j.dir }

// Append assigns the next sequence number to rec, frames and writes it,
// applies the fsync policy, and checkpoints + rotates when due. The
// caller's record is not retained.
func (j *Journal) Append(rec Record) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return fmt.Errorf("journal: append after close")
	}
	j.seq++
	rec.Seq = j.seq
	rec.Epoch = j.epoch
	payload, err := json.Marshal(rec)
	if err != nil {
		obsAppendErrs.Inc()
		return fmt.Errorf("journal: encode record %d: %w", rec.Seq, err)
	}
	frame := EncodeFrame(payload)
	if _, err := j.bw.Write(frame); err != nil {
		obsAppendErrs.Inc()
		return fmt.Errorf("journal: append record %d: %w", rec.Seq, err)
	}
	if j.opts.Fsync == FsyncAlways {
		if err := j.syncLocked(); err != nil {
			obsAppendErrs.Inc()
			return fmt.Errorf("journal: fsync record %d: %w", rec.Seq, err)
		}
	} else if j.opts.FlushEachAppend {
		if err := j.bw.Flush(); err != nil {
			obsAppendErrs.Inc()
			return fmt.Errorf("journal: flush record %d: %w", rec.Seq, err)
		}
	}
	obsAppends.Inc()
	obsAppendBytes.Add(int64(len(frame)))
	obsSeq.Set(int64(j.seq))

	j.sinceCkpt++
	if j.opts.CheckpointEvery > 0 && j.opts.State != nil && j.sinceCkpt >= j.opts.CheckpointEvery {
		j.sinceCkpt = 0
		if err := j.checkpointLocked(); err != nil {
			// A failed checkpoint degrades compaction, not correctness:
			// the tail simply stays longer. Count and carry on.
			obsCkptErrs.Inc()
			j.opts.Logger.Printf("journal: checkpoint at seq %d failed: %v", j.seq, err)
		}
	}
	return nil
}

// Checkpoint forces a checkpoint + rotation now (e.g. on graceful
// shutdown of a long-idle controller). No-op without a State callback.
func (j *Journal) Checkpoint() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return fmt.Errorf("journal: checkpoint after close")
	}
	if j.opts.State == nil {
		return nil
	}
	j.sinceCkpt = 0
	return j.checkpointLocked()
}

// Close flushes, fsyncs and closes the active segment.
func (j *Journal) Close() error {
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		return nil
	}
	j.closed = true
	stop := j.stopFlush
	j.mu.Unlock()
	if stop != nil {
		close(stop)
		<-j.flushDone
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	var err error
	if j.bw != nil {
		if ferr := j.bw.Flush(); ferr != nil && err == nil {
			err = ferr
		}
	}
	if j.f != nil {
		if serr := j.f.Sync(); serr != nil && err == nil {
			err = serr
		}
		if cerr := j.f.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	j.f, j.bw = nil, nil
	return err
}

// syncLocked flushes the buffered writer and fsyncs the segment.
func (j *Journal) syncLocked() error {
	if err := j.bw.Flush(); err != nil {
		return err
	}
	start := time.Now()
	if err := j.f.Sync(); err != nil {
		return err
	}
	obsFsyncs.Inc()
	obsFsync.Observe(time.Since(start))
	return nil
}

// flushLoop is the FsyncInterval background flusher.
func (j *Journal) flushLoop() {
	defer close(j.flushDone)
	tick := time.NewTicker(j.opts.FsyncInterval)
	defer tick.Stop()
	for {
		select {
		case <-j.stopFlush:
			return
		case <-tick.C:
			j.mu.Lock()
			if !j.closed && j.f != nil {
				if err := j.syncLocked(); err != nil {
					j.opts.Logger.Printf("journal: background fsync: %v", err)
				}
			}
			j.mu.Unlock()
		}
	}
}

// openSegmentLocked starts a fresh segment whose first record will carry
// firstSeq.
func (j *Journal) openSegmentLocked(firstSeq uint64) error {
	f, err := j.opts.OpenFile(segmentPath(j.dir, firstSeq))
	if err != nil {
		return fmt.Errorf("journal: open segment: %w", err)
	}
	j.f = f
	j.bw = bufio.NewWriter(f)
	return nil
}

// checkpointLocked writes the owner's state as ckpt-<seq>.snap, rotates
// to a fresh segment and prunes segments/checkpoints superseded by the
// two newest checkpoints (the second-newest is kept as the fallback for
// a damaged newest).
func (j *Journal) checkpointLocked() error {
	start := time.Now()
	seq := j.seq
	err := atomicfile.WriteFile(checkpointPath(j.dir, seq), func(w io.Writer) error {
		var buf bytes.Buffer
		if err := j.opts.State(&buf); err != nil {
			return fmt.Errorf("journal: checkpoint state: %w", err)
		}
		_, err := w.Write(EncodeFrame(buf.Bytes()))
		return err
	})
	if err != nil {
		return err
	}
	// Rotate: seal the current segment, start the next one.
	if err := j.bw.Flush(); err != nil {
		return err
	}
	if err := j.f.Sync(); err != nil {
		return err
	}
	if err := j.f.Close(); err != nil {
		return err
	}
	if err := j.openSegmentLocked(seq + 1); err != nil {
		return err
	}
	obsRotations.Inc()
	obsCheckpoints.Inc()
	obsCkptHist.Observe(time.Since(start))
	j.pruneLocked()
	return nil
}

// pruneLocked deletes checkpoints older than the newest two, and
// segments whose every record is covered by the oldest retained
// checkpoint. Pruning is best-effort; failures only delay reclamation.
func (j *Journal) pruneLocked() {
	ckpts, segs, err := listDir(j.dir)
	if err != nil {
		j.opts.Logger.Printf("journal: prune: %v", err)
		return
	}
	if len(ckpts) > 2 {
		for _, c := range ckpts[:len(ckpts)-2] {
			os.Remove(filepath.Join(j.dir, c.name))
		}
		ckpts = ckpts[len(ckpts)-2:]
	}
	// Segment pruning waits for the second checkpoint: pruning against
	// the newest one would delete the segment holding the very record
	// that triggered it before a follow-mode reader (follow.go) could
	// tail it, forcing a full checkpoint resync every rotation. Bounding
	// by the second-newest checkpoint gives followers one whole
	// checkpoint interval of slack at the cost of one interval of disk.
	if len(ckpts) < 2 {
		return
	}
	keepFrom := ckpts[0].seq // oldest retained checkpoint
	// A segment is redundant when the next segment starts at or before
	// keepFrom+1 — i.e. every record it holds has seq ≤ keepFrom. The
	// active (last) segment is never pruned.
	for i := 0; i+1 < len(segs); i++ {
		if segs[i+1].seq <= keepFrom+1 {
			os.Remove(filepath.Join(j.dir, segs[i].name))
		}
	}
}

// EncodeFrame wraps payload in a magic + length + CRC32C frame.
func EncodeFrame(payload []byte) []byte {
	frame := make([]byte, frameHeader+len(payload))
	binary.LittleEndian.PutUint32(frame[0:4], frameMagic)
	binary.LittleEndian.PutUint32(frame[4:8], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[8:12], crc32.Checksum(payload, crcTable))
	copy(frame[frameHeader:], payload)
	return frame
}

// FrameStats summarizes what a frame walk tolerated.
type FrameStats struct {
	// Corrupt counts CRC failures and damaged headers skipped.
	Corrupt int
	// Resyncs counts the subset of corruptions that lost framing
	// entirely (damaged magic or implausible length) and had to
	// re-synchronize on the next magic marker.
	Resyncs int
	// Torn reports an incomplete trailing frame.
	Torn bool
}

// DecodeFrames walks data frame by frame. Complete, CRC-valid payloads
// are returned in order. A CRC failure skips the frame; a damaged
// length or magic re-synchronizes on the next magic marker; an
// incomplete trailing frame stops the walk as a torn tail. DecodeFrames
// never fails: any input yields the longest decodable prefix-structure,
// which is exactly the crash-recovery contract.
func DecodeFrames(data []byte) (payloads [][]byte, corrupt int, torn bool) {
	payloads, st := DecodeFramesStats(data)
	return payloads, st.Corrupt, st.Torn
}

// DecodeFramesStats is DecodeFrames with the full damage accounting,
// distinguishing plain CRC skips from framing losses that needed a
// magic-scan resync (surfaced as journal.recover.resyncs).
func DecodeFramesStats(data []byte) (payloads [][]byte, st FrameStats) {
	var magicBytes [4]byte
	binary.LittleEndian.PutUint32(magicBytes[:], frameMagic)
	off := 0
	for off < len(data) {
		if len(data)-off < frameHeader {
			st.Torn = true
			return
		}
		if binary.LittleEndian.Uint32(data[off:off+4]) != frameMagic {
			// Lost framing (a flipped length on the previous skip, or
			// garbage): re-synchronize on the next magic marker.
			st.Corrupt++
			st.Resyncs++
			next := bytes.Index(data[off+1:], magicBytes[:])
			if next < 0 {
				return
			}
			off += 1 + next
			continue
		}
		length := binary.LittleEndian.Uint32(data[off+4 : off+8])
		if length > MaxRecordBytes {
			st.Corrupt++
			st.Resyncs++
			next := bytes.Index(data[off+4:], magicBytes[:])
			if next < 0 {
				return
			}
			off += 4 + next
			continue
		}
		end := off + frameHeader + int(length)
		if end > len(data) {
			st.Torn = true
			return
		}
		payload := data[off+frameHeader : end]
		if crc32.Checksum(payload, crcTable) != binary.LittleEndian.Uint32(data[off+8:off+12]) {
			st.Corrupt++
			off = end // length was plausible: skip the damaged frame whole
			continue
		}
		payloads = append(payloads, payload)
		off = end
	}
	return
}

func segmentPath(dir string, firstSeq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("seg-%020d.wal", firstSeq))
}

func checkpointPath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("ckpt-%020d.snap", seq))
}

// dirEntry is one parsed journal file name.
type dirEntry struct {
	name string
	seq  uint64
}

// listDir returns the checkpoints and segments in dir, each sorted by
// ascending sequence number. Unrelated files are ignored.
func listDir(dir string) (ckpts, segs []dirEntry, err error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("journal: read dir %s: %w", dir, err)
	}
	for _, ent := range ents {
		name := ent.Name()
		switch {
		case strings.HasPrefix(name, "ckpt-") && strings.HasSuffix(name, ".snap"):
			if seq, perr := strconv.ParseUint(name[5:len(name)-5], 10, 64); perr == nil {
				ckpts = append(ckpts, dirEntry{name: name, seq: seq})
			}
		case strings.HasPrefix(name, "seg-") && strings.HasSuffix(name, ".wal"):
			if seq, perr := strconv.ParseUint(name[4:len(name)-4], 10, 64); perr == nil {
				segs = append(segs, dirEntry{name: name, seq: seq})
			}
		}
	}
	sort.Slice(ckpts, func(i, k int) bool { return ckpts[i].seq < ckpts[k].seq })
	sort.Slice(segs, func(i, k int) bool { return segs[i].seq < segs[k].seq })
	return ckpts, segs, nil
}

// Recover reads the journal in dir without opening it for appending:
// the newest valid checkpoint plus the decodable record tail beyond it.
// Open wraps this; Recover alone serves inspection tooling and tests.
func Recover(dir string) (*Recovery, error) {
	return recoverDir(dir, log.New(io.Discard, "", 0))
}

func recoverDir(dir string, logger *log.Logger) (*Recovery, error) {
	rec := &Recovery{}
	ckpts, segs, err := listDir(dir)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return rec, nil
		}
		return nil, err
	}

	// Newest checkpoint that validates wins; a damaged one is counted
	// and the predecessor tried.
	for i := len(ckpts) - 1; i >= 0; i-- {
		data, rerr := os.ReadFile(filepath.Join(dir, ckpts[i].name))
		if rerr != nil {
			logger.Printf("journal: checkpoint %s unreadable: %v", ckpts[i].name, rerr)
			rec.Stats.CorruptSkipped++
			rec.Stats.Warnings++
			continue
		}
		payloads, st := DecodeFramesStats(data)
		rec.Stats.Resyncs += st.Resyncs
		if len(payloads) != 1 || st.Corrupt > 0 || st.Torn {
			logger.Printf("journal: checkpoint %s damaged (frames=%d corrupt=%d torn=%v), trying older",
				ckpts[i].name, len(payloads), st.Corrupt, st.Torn)
			rec.Stats.CorruptSkipped++
			rec.Stats.Warnings++
			continue
		}
		rec.Checkpoint = payloads[0]
		rec.Stats.CheckpointSeq = ckpts[i].seq
		break
	}

	// Replay every segment in order, keeping records beyond the
	// checkpoint. Records at or below it (a crash between checkpoint
	// rename and rotation leaves some) are already part of the snapshot.
	last := rec.Stats.CheckpointSeq
	for _, seg := range segs {
		data, rerr := os.ReadFile(filepath.Join(dir, seg.name))
		if rerr != nil {
			logger.Printf("journal: segment %s unreadable: %v", seg.name, rerr)
			rec.Stats.CorruptSkipped++
			rec.Stats.Warnings++
			continue
		}
		rec.Stats.Segments++
		payloads, st := DecodeFramesStats(data)
		rec.Stats.CorruptSkipped += st.Corrupt
		rec.Stats.Resyncs += st.Resyncs
		if st.Corrupt > 0 || st.Torn {
			rec.Stats.Warnings++
		}
		if st.Torn {
			rec.Stats.TornTails++
		}
		for _, payload := range payloads {
			var r Record
			if err := json.Unmarshal(payload, &r); err != nil {
				rec.Stats.CorruptSkipped++
				rec.Stats.Warnings++
				logger.Printf("journal: segment %s: undecodable record: %v", seg.name, err)
				continue
			}
			if r.Seq <= last {
				continue
			}
			rec.Records = append(rec.Records, r)
			last = r.Seq
		}
	}
	rec.Stats.RecordsReplayed = len(rec.Records)
	if rec.Stats.CorruptSkipped > 0 || rec.Stats.TornTails > 0 {
		logger.Printf("journal: recovery skipped %d corrupt frames, %d torn tails",
			rec.Stats.CorruptSkipped, rec.Stats.TornTails)
	}
	return rec, nil
}
