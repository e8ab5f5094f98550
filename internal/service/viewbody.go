package service

import (
	"fmt"
	"math"
	"strconv"

	"wearlock/internal/canonjson"
)

// appendView appends json.NewEncoder(w).Encode(v)'s bytes, trailing
// newline included, to dst, without reflection or boxing v in an
// interface: the body of POST /v1/unlock, of its stream answer and of
// GET /v1/sessions/{id}. Like encoding/json it refuses NaN and ±Inf,
// which Snapshot never lets through; on error dst comes back unchanged.
func appendView(dst []byte, v *View) ([]byte, error) {
	for _, f := range [...]float64{v.BER, v.EbN0dB, v.UnlockDelayMS, v.WallMS} {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return dst, fmt.Errorf("service: unsupported value in session view: %v", f)
		}
	}
	dst = append(dst, `{"id":`...)
	dst = canonjson.AppendStr(dst, v.ID)
	dst = append(dst, `,"scenario":`...)
	dst = canonjson.AppendStr(dst, v.Scenario)
	dst = append(dst, `,"device":`...)
	dst = strconv.AppendInt(dst, int64(v.Device), 10)
	dst = append(dst, `,"state":`...)
	dst = canonjson.AppendStr(dst, v.State)
	if v.Outcome != "" {
		dst = append(dst, `,"outcome":`...)
		dst = canonjson.AppendStr(dst, v.Outcome)
	}
	dst = append(dst, `,"unlocked":`...)
	dst = strconv.AppendBool(dst, v.Unlocked)
	if v.Detail != "" {
		dst = append(dst, `,"detail":`...)
		dst = canonjson.AppendStr(dst, v.Detail)
	}
	if v.Error != "" {
		dst = append(dst, `,"error":`...)
		dst = canonjson.AppendStr(dst, v.Error)
	}
	dst = append(dst, `,"ber":`...)
	dst = appendFloat(dst, v.BER)
	dst = append(dst, `,"ebn0_db":`...)
	dst = appendFloat(dst, v.EbN0dB)
	dst = append(dst, `,"unlock_delay_ms":`...)
	dst = appendFloat(dst, v.UnlockDelayMS)
	dst = append(dst, `,"wall_ms":`...)
	dst = appendFloat(dst, v.WallMS)
	return append(dst, "}\n"...), nil
}

// appendErrorBody appends json.NewEncoder(w).Encode(errorBody{msg})'s
// bytes to dst.
func appendErrorBody(dst []byte, msg string) []byte {
	dst = append(dst, `{"error":`...)
	dst = canonjson.AppendStr(dst, msg)
	return append(dst, "}\n"...)
}

// appendFloat appends a finite f as encoding/json writes a float64:
// the shortest representation, in exponent form below 1e-6 and from
// 1e21 up, with a two-digit negative exponent's leading zero dropped.
func appendFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// e-09 becomes e-9, as encoding/json writes it.
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}
