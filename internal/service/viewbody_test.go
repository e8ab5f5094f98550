package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"testing"
	"time"
)

// encoderBody is the reference: the bytes json.NewEncoder(w).Encode(v)
// writes, or its error.
func encoderBody(v any) ([]byte, error) {
	var b bytes.Buffer
	err := json.NewEncoder(&b).Encode(v)
	return b.Bytes(), err
}

// checkView holds appendView to encoderBody on v: the same bytes, or an
// error from both.
func checkView(t *testing.T, v View) {
	t.Helper()
	want, werr := encoderBody(v)
	got, gerr := appendView([]byte("prefix"), &v)
	switch {
	case (werr == nil) != (gerr == nil):
		t.Fatalf("view %+v: appendView error %v, encoder error %v", v, gerr, werr)
	case gerr != nil:
		if string(got) != "prefix" {
			t.Fatalf("view %+v: failed appendView changed dst to %q", v, got)
		}
	case !bytes.Equal(got[len("prefix"):], want):
		t.Fatalf("view %+v:\nappendView %s\nencoder    %s", v, got[len("prefix"):], want)
	}
}

func TestViewBodyMatchesEncoder(t *testing.T) {
	done := View{ID: "s-00000042", Scenario: "cafe", Device: 7, State: "done", Outcome: "unlocked",
		Unlocked: true, BER: 0.0125, EbN0dB: 13.75, UnlockDelayMS: 1592.4, WallMS: 21.337}
	views := []View{
		done,
		{ID: "s-00000001", Scenario: "out-of-range", State: "done", Outcome: "aborted-link",
			Detail: "watch out of Bluetooth range", BER: -1, UnlockDelayMS: 113, WallMS: 0.412},
		{ID: "s-00000002", Scenario: "default", Device: -1, State: "failed",
			Error: "service: device fenced for handoff", BER: -1},
		{ID: "s-00000003", State: "queued", BER: -1},
	}
	// Escapes, HTML characters, line separators, non-ASCII and invalid
	// UTF-8 in every string field.
	for _, s := range []string{`quo"te\back`, "<b>&amp;</b>", "tab\tnl\nnul\x00", "caf\u00e9 \u2028\u2029 \U0001F512",
		"bad \xff\xfe utf8", "\u007f del", ""} {
		v := done
		v.ID, v.Scenario, v.State, v.Outcome, v.Detail, v.Error = s, s, s, s, s, s
		views = append(views, v)
	}
	// Floats across encoding/json's format switch points, signed zeros
	// and extremes.
	for _, f := range []float64{0, math.Copysign(0, -1), 1, -1, 1e-6, 9.999999e-7, -1e-7, 1e20, 1e21, -1e21,
		123456789.125, 5e-324, math.MaxFloat64, -math.SmallestNonzeroFloat64, 1.5e-10, 2.5e+300, 0.1 + 0.2} {
		v := done
		v.BER, v.EbN0dB, v.UnlockDelayMS, v.WallMS = f, -f, f/3, f*7
		views = append(views, v)
	}
	// Non-finite values: the encoder refuses them, and so does appendView.
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for i := 0; i < 4; i++ {
			v := done
			*[...]*float64{&v.BER, &v.EbN0dB, &v.UnlockDelayMS, &v.WallMS}[i] = f
			views = append(views, v)
		}
	}
	for _, v := range views {
		checkView(t, v)
	}
	for _, msg := range []string{"service: session queue full", `unknown scenario "<x>"`, "caf\u00e9\xff"} {
		want, _ := encoderBody(errorBody{Error: msg})
		if got := appendErrorBody(nil, msg); !bytes.Equal(got, want) {
			t.Errorf("error body %q:\nappendErrorBody %s\nencoder         %s", msg, got, want)
		}
	}
}

// Snapshot's guard keeps a degenerate measurement off the wire: a NaN or
// infinite BER or Eb/N0 reaches the view as its fallback, so the body
// always encodes.
func TestSnapshotGuardsNonFinite(t *testing.T) {
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		sess := &Session{seq: 9, Scenario: "default", state: StateDone,
			answer: Answer{Outcome: 1, BER: f, EbN0dB: f, Delay: time.Second}}
		v := sess.Snapshot()
		if v.BER != -1 || v.EbN0dB != 0 {
			t.Fatalf("Snapshot of BER/EbN0 %v gave %v/%v, want -1/0", f, v.BER, v.EbN0dB)
		}
		checkView(t, v)
		if _, err := appendView(nil, &v); err != nil {
			t.Fatalf("guarded view failed to encode: %v", err)
		}
	}
}

// A view rendered for the wire carries its session's sequence, not an
// ID string: its body is the body of the Snapshot with the ID, byte for
// byte, and Get takes back exactly the IDs sessionID writes.
func TestViewIDFromSequence(t *testing.T) {
	for _, seq := range []uint64{1, 42, 99_999_999, 100_000_000, 1<<63 + 5, math.MaxUint64} {
		sess := &Session{seq: seq, Scenario: "cafe", Device: 3, state: StateDone,
			submitted: time.Millisecond, finished: 25 * time.Millisecond,
			answer: Answer{Outcome: 1, Unlocked: true, BER: 0.01, Delay: time.Second}}
		v := sess.Snapshot()
		if v.ID != fmt.Sprintf("s-%08d", seq) {
			t.Fatalf("seq %d: ID %q", seq, v.ID)
		}
		checkView(t, v)
		want, _ := encoderBody(v)
		wire := sess.view()
		if wire.ID != "" {
			t.Fatalf("seq %d: the wire view carries ID %q", seq, wire.ID)
		}
		if got, err := appendView(nil, &wire); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("seq %d: wire view body %s (%v), want %s", seq, got, err, want)
		}
		if got, ok := parseSessionID(v.ID); !ok || got != seq {
			t.Fatalf("parseSessionID(%q) = %d, %v", v.ID, got, ok)
		}
	}
	for _, id := range []string{"", "s-", "s-1", "s-0000042", "s-000000042", "s-00000042x", "x-00000042",
		"s-+0000042", "S-00000042", "s-00000000", "s-18446744073709551616", " s-00000042"} {
		if seq, ok := parseSessionID(id); ok && sessionID(seq) != id {
			t.Errorf("parseSessionID(%q) = %d, which formats as %q", id, seq, sessionID(seq))
		} else if ok && id != "s-00000000" {
			t.Errorf("parseSessionID accepted %q", id)
		}
	}
}

func FuzzViewBody(f *testing.F) {
	f.Add("s-00000042", "cafe", 7, "done", "unlocked", true, "", "", 0.0125, 13.75, 1592.4, 21.337)
	f.Add("s-1", "<x>&", -1, "failed", "", false, "d\u2028", "e\"\\\xff", -1.0, 0.0, 1e21, 1e-7)
	f.Add("", "", 0, "", "", false, "", "", math.Copysign(0, -1), 5e-324, math.MaxFloat64, math.Inf(1))
	f.Fuzz(func(t *testing.T, id, scenario string, device int, state, outcome string, unlocked bool,
		detail, errMsg string, ber, ebn0, delay, wall float64) {
		checkView(t, View{ID: id, Scenario: scenario, Device: device, State: state, Outcome: outcome,
			Unlocked: unlocked, Detail: detail, Error: errMsg, BER: ber, EbN0dB: ebn0, UnlockDelayMS: delay, WallMS: wall})
		want, _ := encoderBody(errorBody{Error: errMsg})
		if got := appendErrorBody(nil, errMsg); !bytes.Equal(got, want) {
			t.Fatalf("error body %q:\nappendErrorBody %s\nencoder         %s", errMsg, got, want)
		}
	})
}
