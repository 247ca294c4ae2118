package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"

	"lattice/internal/sim"
	"lattice/internal/workload"
)

// The record encoding is positional: every field of Record, in the
// order below, whatever the Kind. Integers are varints (unsigned for
// Seq, lengths and counts; zig-zag for the rest), floats are their
// IEEE-754 bits little-endian, strings and slices are length-prefixed,
// booleans and the presence of the two pointer payloads share a flags
// byte. One record has exactly one encoding, so two records are equal
// field for field exactly when their encodings are equal bytes — which
// is how recovery compares them (Comparer). TestCodecCoversEveryField
// fails when a field is added to Record or to the workload types it
// carries without being added here.

// kinds maps the kind byte to the Kind it stands for; 0 is invalid.
var kinds = [...]Kind{
	1: KindGenesis,
	2: KindStage,
	3: KindEWMA,
	4: KindBackoff,
	5: KindWorkunit,
	6: KindSubmission,
	7: KindUser,
	8: KindWorkflow,
}

// kindCode returns k's kind byte, 0 when k is not a known Kind.
func kindCode(k Kind) byte {
	for c := 1; c < len(kinds); c++ {
		if kinds[c] == k {
			return byte(c)
		}
	}
	return 0
}

const (
	flagQueued = 1 << iota
	flagPre
	flagSub
	flagWF
	recordFlags = flagQueued | flagPre | flagSub | flagWF
)

// Flag bits shared by Submission and WorkflowStage.
const (
	flagBootstrap = 1 << iota
	flagServiceOnly
	flagShort    = flagServiceOnly
	payloadFlags = flagBootstrap | flagServiceOnly
)

func flagIf(on bool, bit byte) byte {
	if on {
		return bit
	}
	return 0
}

// appendRecord appends r's canonical encoding to dst.
func appendRecord(dst []byte, r *Record) []byte {
	dst = append(dst, kindCode(r.Kind))
	dst = binary.AppendUvarint(dst, r.Seq)
	dst = appendFloat(dst, float64(r.At))
	dst = append(dst, flagIf(r.Queued, flagQueued)|flagIf(r.Pre, flagPre)|
		flagIf(r.Sub != nil, flagSub)|flagIf(r.WF != nil, flagWF))
	dst = appendString(dst, r.Batch)
	dst = appendString(dst, r.Job)
	dst = appendString(dst, r.Stage)
	dst = appendString(dst, r.Resource)
	dst = appendString(dst, r.Detail)
	dst = appendFloat(dst, r.Value)
	dst = binary.AppendVarint(dst, int64(r.Attempt))
	dst = appendString(dst, r.State)
	dst = appendString(dst, r.Origin)
	dst = appendString(dst, r.Token)
	dst = appendString(dst, r.Email)
	dst = binary.AppendVarint(dst, r.Seed)
	if r.Sub != nil {
		dst = appendSubmission(dst, r.Sub)
	}
	if r.WF != nil {
		dst = appendWorkflow(dst, r.WF)
	}
	return dst
}

func appendSubmission(dst []byte, s *workload.Submission) []byte {
	dst = appendSpec(dst, &s.Spec)
	dst = binary.AppendVarint(dst, int64(s.Replicates))
	dst = append(dst, flagIf(s.Bootstrap, flagBootstrap)|flagIf(s.ServiceOnly, flagServiceOnly))
	dst = appendString(dst, s.UserEmail)
	return appendString(dst, s.BatchTag)
}

func appendSpec(dst []byte, s *workload.JobSpec) []byte {
	dst = binary.AppendVarint(dst, int64(s.DataType))
	dst = binary.AppendVarint(dst, int64(s.RateHet))
	dst = binary.AppendVarint(dst, int64(s.NumRateCats))
	dst = appendFloat(dst, s.GammaShape)
	dst = appendFloat(dst, s.PropInvariant)
	dst = appendString(dst, s.SubstModel)
	dst = binary.AppendVarint(dst, int64(s.NumTaxa))
	dst = binary.AppendVarint(dst, int64(s.SeqLength))
	dst = binary.AppendVarint(dst, int64(s.SearchReps))
	dst = binary.AppendVarint(dst, int64(s.StartingTree))
	dst = binary.AppendVarint(dst, int64(s.AttachmentsPerTaxon))
	return binary.AppendVarint(dst, s.Seed)
}

func appendWorkflow(dst []byte, w *workload.Workflow) []byte {
	dst = appendString(dst, w.Name)
	dst = appendString(dst, w.UserEmail)
	dst = binary.AppendVarint(dst, w.Seed)
	dst = binary.AppendUvarint(dst, uint64(len(w.Stages)))
	for i := range w.Stages {
		st := &w.Stages[i]
		dst = appendString(dst, st.ID)
		dst = appendSpec(dst, &st.Spec)
		dst = binary.AppendVarint(dst, int64(st.Replicates))
		dst = append(dst, flagIf(st.Bootstrap, flagBootstrap)|flagIf(st.Short, flagShort))
		dst = binary.AppendUvarint(dst, uint64(len(st.After)))
		for _, id := range st.After {
			dst = appendString(dst, id)
		}
	}
	return dst
}

func appendFloat(dst []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(f))
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// decoder consumes an encoding front to back. The first malformed
// field sets err and every later read returns zero, so decodeRecord
// checks once at the end.
type decoder struct {
	p   []byte
	err error
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
	d.p = nil
}

func (d *decoder) u8() byte {
	if len(d.p) == 0 {
		d.fail("record ends inside a one-byte field")
		return 0
	}
	b := d.p[0]
	d.p = d.p[1:]
	return b
}

func (d *decoder) flags(known byte) byte {
	b := d.u8()
	if b&^known != 0 {
		d.fail("unknown flag bits %#x", b&^known)
	}
	return b
}

func (d *decoder) uvarint() uint64 {
	v, n := binary.Uvarint(d.p)
	if n <= 0 {
		d.fail("malformed or truncated varint")
		return 0
	}
	d.p = d.p[n:]
	return v
}

func (d *decoder) varint() int64 {
	v, n := binary.Varint(d.p)
	if n <= 0 {
		d.fail("malformed or truncated varint")
		return 0
	}
	d.p = d.p[n:]
	return v
}

func (d *decoder) float() float64 {
	if len(d.p) < 8 {
		d.fail("record ends inside a float")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.p))
	d.p = d.p[8:]
	return v
}

// length reads a string length or element count. Every counted thing
// occupies at least one byte, so a value above the bytes left is
// corruption — checked before anything is allocated from it.
func (d *decoder) length() int {
	n := d.uvarint()
	if n > uint64(len(d.p)) {
		d.fail("length prefix %d exceeds the %d bytes left", n, len(d.p))
		return 0
	}
	return int(n)
}

func (d *decoder) str() string {
	n := d.length()
	s := string(d.p[:n])
	d.p = d.p[n:]
	return s
}

// decodeRecord parses one canonical encoding. Anything appendRecord
// cannot have produced from a valid record — unknown kind or flag
// bits, a length past the end, bytes left over — is an error.
func decodeRecord(p []byte) (Record, error) {
	d := &decoder{p: p}
	var r Record
	if c := d.u8(); c == 0 || int(c) >= len(kinds) {
		d.fail("unknown kind byte %d", c)
	} else {
		r.Kind = kinds[c]
	}
	r.Seq = d.uvarint()
	r.At = sim.Time(d.float())
	flags := d.flags(recordFlags)
	r.Queued = flags&flagQueued != 0
	r.Pre = flags&flagPre != 0
	r.Batch = d.str()
	r.Job = d.str()
	r.Stage = d.str()
	r.Resource = d.str()
	r.Detail = d.str()
	r.Value = d.float()
	readInt(d, &r.Attempt)
	r.State = d.str()
	r.Origin = d.str()
	r.Token = d.str()
	r.Email = d.str()
	r.Seed = d.varint()
	if flags&flagSub != 0 {
		r.Sub = d.submission()
	}
	if flags&flagWF != 0 {
		r.WF = d.workflow()
	}
	if d.err == nil && len(d.p) != 0 {
		d.fail("%d trailing bytes", len(d.p))
	}
	if d.err != nil {
		return Record{}, d.err
	}
	return r, nil
}

func (d *decoder) submission() *workload.Submission {
	s := &workload.Submission{Spec: d.spec()}
	readInt(d, &s.Replicates)
	flags := d.flags(payloadFlags)
	s.Bootstrap = flags&flagBootstrap != 0
	s.ServiceOnly = flags&flagServiceOnly != 0
	s.UserEmail = d.str()
	s.BatchTag = d.str()
	return s
}

func (d *decoder) spec() (s workload.JobSpec) {
	readInt(d, &s.DataType)
	readInt(d, &s.RateHet)
	readInt(d, &s.NumRateCats)
	s.GammaShape = d.float()
	s.PropInvariant = d.float()
	s.SubstModel = d.str()
	readInt(d, &s.NumTaxa)
	readInt(d, &s.SeqLength)
	readInt(d, &s.SearchReps)
	readInt(d, &s.StartingTree)
	readInt(d, &s.AttachmentsPerTaxon)
	s.Seed = d.varint()
	return s
}

// readInt decodes one zig-zag varint into an int-kinded field.
func readInt[T ~int](d *decoder, p *T) { *p = T(d.varint()) }

func (d *decoder) workflow() *workload.Workflow {
	w := &workload.Workflow{}
	w.Name = d.str()
	w.UserEmail = d.str()
	w.Seed = d.varint()
	// Slices grow as elements decode, never from the count alone: a
	// forged count costs nothing until real bytes back it.
	for n := d.length(); n > 0 && d.err == nil; n-- {
		var st workload.WorkflowStage
		st.ID = d.str()
		st.Spec = d.spec()
		readInt(d, &st.Replicates)
		flags := d.flags(payloadFlags)
		st.Bootstrap = flags&flagBootstrap != 0
		st.Short = flags&flagShort != 0
		for m := d.length(); m > 0 && d.err == nil; m-- {
			st.After = append(st.After, d.str())
		}
		w.Stages = append(w.Stages, st)
	}
	return w
}

// appendFrame appends r as one log frame: uint32 LE payload length,
// uint32 LE CRC32 (IEEE) of the payload, then the payload.
func appendFrame(dst []byte, r *Record) []byte {
	start := len(dst)
	dst = append(dst, make([]byte, frameHeaderSize)...)
	dst = appendRecord(dst, r)
	payload := dst[start+frameHeaderSize:]
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(dst[start+4:], crc32.ChecksumIEEE(payload))
	return dst
}

// decodeFrame parses one frame at off, returning the record and the
// next offset.
func decodeFrame(data []byte, off int) (Record, int, error) {
	if len(data)-off < frameHeaderSize {
		return Record{}, 0, errors.New("truncated frame header")
	}
	n := int(binary.LittleEndian.Uint32(data[off : off+4]))
	sum := binary.LittleEndian.Uint32(data[off+4 : off+8])
	if n > maxFrame {
		return Record{}, 0, fmt.Errorf("frame length %d exceeds limit", n)
	}
	body := off + frameHeaderSize
	if len(data)-body < n {
		return Record{}, 0, fmt.Errorf("truncated frame payload (%d of %d bytes)", len(data)-body, n)
	}
	payload := data[body : body+n]
	if crc32.ChecksumIEEE(payload) != sum {
		return Record{}, 0, errors.New("checksum mismatch")
	}
	r, err := decodeRecord(payload)
	if err != nil {
		return Record{}, 0, fmt.Errorf("decoding payload: %w", err)
	}
	return r, body + n, nil
}

// Comparer reports whether two records are equal field for field —
// Seq, At and every flag included — by comparing their canonical
// encodings in two buffers it reuses, so a comparison allocates
// nothing once the buffers have grown to the largest record seen.
type Comparer struct{ a, b []byte }

// Equal reports whether x and y are the same record.
func (c *Comparer) Equal(x, y *Record) bool {
	c.a = appendRecord(c.a[:0], x)
	c.b = appendRecord(c.b[:0], y)
	return bytes.Equal(c.a, c.b)
}
