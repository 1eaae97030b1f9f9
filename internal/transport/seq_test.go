package transport

import "testing"

func TestSeqTracker(t *testing.T) {
	// One stream, step by step: each frame is classified against the
	// frames admitted before it.
	steps := []struct {
		name   string
		reset  bool // Reset before admitting
		seq    uint64
		first  bool // a connection's first frame
		want   SeqVerdict
		missed uint64
	}{
		{name: "stream's first frame", seq: 5, first: true, want: SeqNext},
		{name: "in order", seq: 6, want: SeqNext},
		{name: "in order again", seq: 7, want: SeqNext},
		{name: "gap", seq: 10, want: SeqGap, missed: 2},
		{name: "duplicate", seq: 10, want: SeqLate},
		{name: "reordered straggler", seq: 9, want: SeqLate},
		{name: "backward step mid-connection", seq: 2, want: SeqLate},
		{name: "in order after late frames", seq: 11, want: SeqNext},
		{name: "connection's first frame in order", seq: 12, first: true, want: SeqNext},
		{name: "connection's first frame after a gap", seq: 15, first: true, want: SeqGap, missed: 2},
		{name: "epoch reset", seq: 3, first: true, want: SeqEpochReset},
		{name: "in order after the epoch reset", seq: 4, want: SeqNext},
		{name: "state reset", reset: true, seq: 1, want: SeqNext},
		{name: "in order after the state reset", seq: 2, want: SeqNext},
	}
	var tr SeqTracker
	for _, st := range steps {
		if st.reset {
			tr.Reset()
		}
		v, missed := tr.Admit(st.seq, st.first)
		if v != st.want || missed != st.missed {
			t.Fatalf("%s: Admit(%d, %v) = %d, %d; want %d, %d",
				st.name, st.seq, st.first, v, missed, st.want, st.missed)
		}
	}
}
