package server

import (
	"fmt"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"strings"

	"repro/internal/batchwire"
)

// query holds the first value of each query parameter the routes read,
// as r.URL.Query().Get returns it, parsed without building url.Values.
type query struct {
	s, t, k, tau, explain string
}

// parseQuery reads raw the way url.ParseQuery does: pairs split on '&',
// a pair holding ';' or an escape that does not decode is skipped, '+'
// reads as a space, and a key's first value wins. Values are substrings
// of raw unless they hold escapes.
func parseQuery(raw string) query {
	var q query
	var seen uint8
	for raw != "" {
		var pair string
		pair, raw, _ = strings.Cut(raw, "&")
		if strings.Contains(pair, ";") {
			continue
		}
		key, val, _ := strings.Cut(pair, "=")
		key, err := url.QueryUnescape(key)
		if err != nil {
			continue
		}
		var dst *string
		var bit uint8
		switch key {
		case "s":
			dst, bit = &q.s, 1
		case "t":
			dst, bit = &q.t, 2
		case "k":
			dst, bit = &q.k, 4
		case "tau":
			dst, bit = &q.tau, 8
		case "explain":
			dst, bit = &q.explain, 16
		default:
			continue
		}
		if seen&bit != 0 {
			continue
		}
		if val, err = url.QueryUnescape(val); err != nil {
			continue
		}
		*dst, seen = val, seen|bit
	}
	return q
}

// wantExplain reports whether the request opted into provenance
// (?explain=1 or any other truthy value strconv accepts).
func (q *query) wantExplain() bool {
	ok, _ := strconv.ParseBool(q.explain)
	return ok
}

// distanceAnswer is a /distance answer. A guarded answer adds the
// certified bounds and whether the estimate was clamped into them; a
// shard replica marks a pair whose target lies outside its region.
type distanceAnswer struct {
	S, T       int32
	Distance   float64
	Guarded    bool
	Lo, Hi     float64
	Clamped    bool
	CrossShard bool
}

// fields returns a as the map an explained answer extends.
func (a *distanceAnswer) fields() map[string]any {
	out := map[string]any{"s": a.S, "t": a.T, "distance": a.Distance}
	if a.Guarded {
		out["lo"], out["hi"], out["clamped"] = a.Lo, a.Hi, a.Clamped
	}
	if a.CrossShard {
		out["cross_shard"] = true
	}
	return out
}

// appendJSON appends a's encoding and a newline to dst: the bytes
// encoding/json writes for a.fields(), keys sorted. A non-finite
// number, which JSON cannot carry, is refused with an error.
func (a *distanceAnswer) appendJSON(dst []byte) ([]byte, error) {
	for _, f := range [...]float64{a.Distance, a.Lo, a.Hi} {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return dst, fmt.Errorf("the estimate %v in [%v, %v] is not a number JSON can carry", a.Distance, a.Lo, a.Hi)
		}
	}
	dst = append(dst, '{')
	if a.Guarded {
		dst = append(dst, `"clamped":`...)
		dst = strconv.AppendBool(dst, a.Clamped)
		dst = append(dst, ',')
	}
	if a.CrossShard {
		dst = append(dst, `"cross_shard":true,`...)
	}
	dst = append(dst, `"distance":`...)
	dst = batchwire.AppendFloat(dst, a.Distance)
	if a.Guarded {
		dst = append(dst, `,"hi":`...)
		dst = batchwire.AppendFloat(dst, a.Hi)
		dst = append(dst, `,"lo":`...)
		dst = batchwire.AppendFloat(dst, a.Lo)
	}
	dst = append(dst, `,"s":`...)
	dst = strconv.AppendInt(dst, int64(a.S), 10)
	dst = append(dst, `,"t":`...)
	dst = strconv.AppendInt(dst, int64(a.T), 10)
	return append(dst, "}\n"...), nil
}

// appendKNN appends a /knn answer and a newline to dst: the bytes
// encoding/json writes for {"distances", "stats", "targets"}, where
// stats is the encoded traversal stats of an explained query or nil.
func appendKNN(dst []byte, targets []int32, dists []float64, stats []byte) ([]byte, error) {
	dst = append(dst, `{"distances":`...)
	dst, err := batchwire.AppendFloats(dst, "distances", dists)
	if err != nil {
		return dst, err
	}
	if stats != nil {
		dst = append(dst, `,"stats":`...)
		dst = append(dst, stats...)
	}
	dst = append(dst, `,"targets":[`...)
	for i, v := range targets {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(dst, int64(v), 10)
	}
	return append(dst, "]}\n"...), nil
}

// writeBody sends an encoded JSON answer, leaving its length to
// net/http.
func writeBody(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(body) // a failed write means the client is gone
}
