package transport

// SeqVerdict is SeqTracker's classification of one frame. Every frame
// but a late one is delivered.
type SeqVerdict uint8

const (
	SeqNext       SeqVerdict = iota // the next frame, or a stream's first
	SeqGap                          // a forward jump past lost frames
	SeqLate                         // a duplicate or reordered straggler, its hole already reported
	SeqEpochReset                   // a backward step on a connection's first frame: the sender restarted its counter
)

// SeqTracker owns the stream sequence rule: a frame whose Seq is not
// above the last delivered one is late and discarded, and a forward
// jump is a gap, so what is delivered has strictly increasing sequence
// numbers within a connection. The zero value expects a stream's first
// frame.
type SeqTracker struct {
	last uint64
	have bool
}

// Admit classifies the frame numbered seq and, unless it is late,
// records it as the last delivered one. first marks a connection's
// first frame, the only place a backward step is an epoch reset rather
// than a late frame. missed is the number of frames a SeqGap skipped.
func (t *SeqTracker) Admit(seq uint64, first bool) (v SeqVerdict, missed uint64) {
	switch {
	case !t.have, seq == t.last+1:
	case seq > t.last:
		v, missed = SeqGap, seq-t.last-1
	case first:
		v = SeqEpochReset
	default:
		return SeqLate, 0
	}
	t.last, t.have = seq, true
	return v, missed
}

// Reset forgets the last delivered frame, so the next one starts a new
// stream.
func (t *SeqTracker) Reset() { *t = SeqTracker{} }
