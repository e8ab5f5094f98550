// Package otp implements the counter-based one-time password scheme
// WearLock transmits over the acoustic channel (Sec. IV "One Time
// Password"): RFC 4226 HOTP — HMAC-SHA-1 over a shared key and counter,
// dynamic truncation to 31 bits, and optional decimal-digit rendering —
// plus a verifier with a look-ahead window and the paper's three-strike
// lockout.
package otp

import (
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha1"
	"crypto/subtle"
	"encoding/binary"
	"fmt"
	"hash"
	"math"
	"sync"
)

// KeySize is the shared-secret length in bytes. RFC 4226 recommends at
// least 16; the phone and watch negotiate this key over the Bluetooth
// control channel.
const KeySize = 20

// GenerateKey returns a fresh random shared secret.
func GenerateKey() ([]byte, error) {
	key := make([]byte, KeySize)
	if _, err := rand.Read(key); err != nil {
		return nil, fmt.Errorf("otp: generating key: %w", err)
	}
	return key, nil
}

// Token computes the 31-bit HOTP value for a key and counter: the
// HMAC-SHA-1 dynamic truncation of RFC 4226 Sec. 5.3. The high bit is
// always zero per the RFC, so values fit in an int32.
func Token(key []byte, counter uint64) (uint32, error) {
	if len(key) == 0 {
		return 0, fmt.Errorf("otp: empty key")
	}
	return (&hotp{key: key}).token(counter), nil
}

// hotp computes the tokens of one key. Its HMAC state is built at the
// first token and Reset for every later one, so a Generator or Verifier
// that keeps one allocates nothing per token. Not safe for concurrent use;
// its owner's mutex guards it.
type hotp struct {
	key []byte
	mac hash.Hash
	sum [sha1.Size]byte
}

func (h *hotp) token(counter uint64) uint32 {
	if h.mac == nil {
		h.mac = hmac.New(sha1.New, h.key)
	} else {
		h.mac.Reset()
	}
	var msg [8]byte
	binary.BigEndian.PutUint64(msg[:], counter)
	h.mac.Write(msg[:]) // a hash.Hash Write never fails
	sum := h.mac.Sum(h.sum[:0])
	// Dynamic truncation: the low 4 bits of the last byte select a 4-byte
	// window; mask the top bit.
	offset := sum[len(sum)-1] & 0x0f
	return binary.BigEndian.Uint32(sum[offset:offset+4]) & 0x7fffffff
}

// Digits renders a token as an n-digit decimal code (token mod 10^n), the
// human-facing form RFC 4226 describes. n must be in [1, 9].
func Digits(token uint32, n int) (string, error) {
	if n < 1 || n > 9 {
		return "", fmt.Errorf("otp: digit count %d outside [1, 9]", n)
	}
	mod := uint32(math.Pow10(n))
	return fmt.Sprintf("%0*d", n, token%mod), nil
}

// TokenBits returns the token as BitLength bits (MSB first, values 0/1),
// the form modulated onto the acoustic data sub-channels.
func TokenBits(token uint32) []byte {
	out := make([]byte, BitLength)
	for i := 0; i < BitLength; i++ {
		out[i] = byte(token>>(BitLength-1-i)) & 1
	}
	return out
}

// BitLength is the number of bits in an acoustic OTP token. The paper
// describes the keyspace as 2^32; RFC 4226 truncation masks the sign bit,
// leaving 31 random bits, so we transmit a 32-bit field whose top bit is
// always zero.
const BitLength = 32

// TokenFromBits parses a BitLength-bit (MSB first) sequence back into a
// token value.
func TokenFromBits(bits []byte) (uint32, error) {
	if len(bits) != BitLength {
		return 0, fmt.Errorf("otp: token needs %d bits, got %d", BitLength, len(bits))
	}
	var v uint32
	for _, b := range bits {
		if b > 1 {
			return 0, fmt.Errorf("otp: bit value %d is not 0 or 1", b)
		}
		v = v<<1 | uint32(b)
	}
	return v, nil
}

// DefaultLookAhead is how many counters past the expected one the verifier
// will accept, tolerating generations that never arrived (RFC 4226
// resynchronization parameter s).
const DefaultLookAhead = 4

// DefaultMaxFailures is the paper's lockout: "the smartphone will be
// locked up after three consecutive failures".
const DefaultMaxFailures = 3

// DefaultResyncLookAhead is the widened look-ahead armed for the verifies
// immediately after a crash recovery (Restore). A crash can lose the
// commits of at most one in-flight session per device, and a resilient
// session draws at most MaxRetries+1 tokens, so the generator may sit a
// few counters past the last durably-committed verifier position; the
// widened window lets the first post-recovery verify absorb that gap
// without handing a steady-state attacker a larger keyspace (the window
// narrows back to DefaultLookAhead on the first success).
const DefaultResyncLookAhead = 16

// Verifier validates received tokens against the shared key and a moving
// counter, locking out after consecutive failures. It is safe for
// concurrent use.
type Verifier struct {
	mu          sync.Mutex
	hotp        hotp
	counter     uint64
	lookAhead   int
	maxFailures int
	failures    int
	lockedOut   bool
	// resyncExtra widens the look-ahead window after Restore until the
	// next successful verify (the RFC 4226 resynchronization parameter,
	// temporarily enlarged because a crash may have lost counter commits).
	resyncExtra int
}

// NewVerifier creates a verifier starting at the given counter.
func NewVerifier(key []byte, counter uint64) (*Verifier, error) {
	if len(key) == 0 {
		return nil, fmt.Errorf("otp: empty key")
	}
	k := make([]byte, len(key))
	copy(k, key)
	return &Verifier{
		hotp:        hotp{key: k},
		counter:     counter,
		lookAhead:   DefaultLookAhead,
		maxFailures: DefaultMaxFailures,
	}, nil
}

// SetLookAhead overrides the resynchronization window (must be >= 0).
func (v *Verifier) SetLookAhead(n int) error {
	if n < 0 {
		return fmt.Errorf("otp: look-ahead %d must be non-negative", n)
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	v.lookAhead = n
	return nil
}

// ErrLockedOut is returned once the failure budget is exhausted.
var ErrLockedOut = fmt.Errorf("otp: locked out after consecutive failures")

// Verify checks a received token against counters [current, current+
// lookAhead]. On success the counter advances past the matched value and
// the failure count resets. On failure the failure count increments; after
// maxFailures consecutive failures the verifier locks out until Reset.
func (v *Verifier) Verify(token uint32) (bool, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.lockedOut {
		return false, ErrLockedOut
	}
	window := v.lookAhead + v.resyncExtra
	for i := 0; i <= window; i++ {
		want := v.hotp.token(v.counter + uint64(i))
		if subtle.ConstantTimeEq(int32(want), int32(token)) == 1 {
			v.counter += uint64(i) + 1
			v.failures = 0
			v.resyncExtra = 0
			return true, nil
		}
	}
	v.failures++
	if v.failures >= v.maxFailures {
		v.lockedOut = true
	}
	return false, nil
}

// LockedOut reports whether the verifier refuses further attempts.
func (v *Verifier) LockedOut() bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.lockedOut
}

// Failures returns the current consecutive-failure count.
func (v *Verifier) Failures() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.failures
}

// Counter returns the next counter value the verifier expects.
func (v *Verifier) Counter() uint64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.counter
}

// Reset clears the lockout and failure count after the user authenticates
// through the fallback mechanism (PIN entry), and optionally renegotiates
// the counter.
func (v *Verifier) Reset(counter uint64) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.failures = 0
	v.lockedOut = false
	v.counter = counter
	v.resyncExtra = 0
}

// VerifierState is the durable snapshot of a Verifier: everything needed
// to reconstruct replay protection after a process restart. The shared key
// is pairing state and travels separately.
type VerifierState struct {
	Counter   uint64 `json:"counter"`
	Failures  int    `json:"failures"`
	LockedOut bool   `json:"locked_out"`
}

// Export captures the verifier's durable state.
func (v *Verifier) Export() VerifierState {
	v.mu.Lock()
	defer v.mu.Unlock()
	return VerifierState{Counter: v.counter, Failures: v.failures, LockedOut: v.lockedOut}
}

// Restore loads a durably-committed state after a restart. The counter
// only ever moves forward: restoring a state older than the verifier's
// live position is refused, because moving back would re-accept tokens
// that already verified once (a replay). extraLookAhead widens the accept
// window for the verifies following recovery — a crash may have lost the
// last in-flight session's counter commits, leaving the generator ahead
// of the restored position — and is disarmed by the first successful
// verify or an explicit Reset.
func (v *Verifier) Restore(st VerifierState, extraLookAhead int) error {
	if extraLookAhead < 0 {
		return fmt.Errorf("otp: resync look-ahead %d must be non-negative", extraLookAhead)
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if st.Counter < v.counter {
		return fmt.Errorf("otp: restore would regress counter %d to %d", v.counter, st.Counter)
	}
	v.counter = st.Counter
	v.failures = st.Failures
	v.lockedOut = st.LockedOut
	v.resyncExtra = extraLookAhead
	return nil
}

// Generator is the phone-side token source sharing key and counter with a
// Verifier. It is safe for concurrent use.
type Generator struct {
	mu      sync.Mutex
	hotp    hotp
	counter uint64
}

// NewGenerator creates a generator starting at the given counter.
func NewGenerator(key []byte, counter uint64) (*Generator, error) {
	if len(key) == 0 {
		return nil, fmt.Errorf("otp: empty key")
	}
	k := make([]byte, len(key))
	copy(k, key)
	return &Generator{hotp: hotp{key: k}, counter: counter}, nil
}

// Next produces the token for the current counter and advances it.
func (g *Generator) Next() (uint32, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	token := g.hotp.token(g.counter)
	g.counter++
	return token, nil
}

// Counter returns the next counter value the generator will use.
func (g *Generator) Counter() uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.counter
}

// Advance fast-forwards the generator to a durably-committed counter
// position after a restart. Like Verifier.Restore it is forward-only:
// rewinding would re-issue tokens the verifier has already consumed.
func (g *Generator) Advance(counter uint64) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if counter < g.counter {
		return fmt.Errorf("otp: advance would regress counter %d to %d", g.counter, counter)
	}
	g.counter = counter
	return nil
}
