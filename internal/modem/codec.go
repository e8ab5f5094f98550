package modem

import "fmt"

// Repetition channel coding. The data-rate formula of Sec. III-7 carries a
// coding-rate term rc; WearLock's deployed configuration protects the
// 32-bit OTP with an odd-factor repetition code and majority-vote
// decoding, which is what lets tokens survive the residual BERs the field
// test reports (average ~0.08, Table I): at BER p, the per-bit error after
// k-repetition majority voting falls to roughly C(k,(k+1)/2) p^((k+1)/2).

// DefaultRepetition is the deployed repetition factor.
const DefaultRepetition = 5

// EncodeRepetition repeats the bit sequence k times (block repetition:
// the whole sequence is sent k times over, which spreads each bit's copies
// across different OFDM symbols and sub-channels for interference
// diversity). k must be odd and positive.
func EncodeRepetition(bits []byte, k int) ([]byte, error) {
	return EncodeRepetitionInto(nil, bits, k)
}

// EncodeRepetitionInto is EncodeRepetition appending to dst[:0], so a
// caller that keeps dst allocates nothing once it is large enough. bits
// must not overlap dst.
func EncodeRepetitionInto(dst, bits []byte, k int) ([]byte, error) {
	if k <= 0 || k%2 == 0 {
		return nil, fmt.Errorf("modem: repetition factor %d must be odd and positive", k)
	}
	if len(bits) == 0 {
		return nil, fmt.Errorf("modem: empty bit sequence")
	}
	if cap(dst) < len(bits)*k {
		dst = make([]byte, 0, len(bits)*k)
	}
	dst = dst[:0]
	for i := 0; i < k; i++ {
		dst = append(dst, bits...)
	}
	return dst, nil
}

// DecodeRepetition majority-votes k received copies back into the
// original sequence. len(bits) must be a multiple of k.
func DecodeRepetition(bits []byte, k int) ([]byte, error) {
	return DecodeRepetitionInto(nil, bits, k)
}

// DecodeRepetitionInto is DecodeRepetition writing into dst's storage
// when it is large enough. bits must not overlap dst.
func DecodeRepetitionInto(dst, bits []byte, k int) ([]byte, error) {
	if k <= 0 || k%2 == 0 {
		return nil, fmt.Errorf("modem: repetition factor %d must be odd and positive", k)
	}
	if len(bits) == 0 || len(bits)%k != 0 {
		return nil, fmt.Errorf("modem: %d bits not a multiple of repetition factor %d", len(bits), k)
	}
	n := len(bits) / k
	if cap(dst) < n {
		dst = make([]byte, n)
	}
	dst = dst[:n]
	for i := 0; i < n; i++ {
		votes := 0
		for copyIdx := 0; copyIdx < k; copyIdx++ {
			b := bits[copyIdx*n+i]
			if b > 1 {
				return nil, fmt.Errorf("modem: bit value %d is not 0 or 1", b)
			}
			votes += int(b)
		}
		dst[i] = 0
		if votes*2 > k {
			dst[i] = 1
		}
	}
	return dst, nil
}
