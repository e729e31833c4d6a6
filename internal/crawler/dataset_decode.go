package crawler

import (
	"bytes"
	"encoding/binary"
	"math"
	"time"
	"unicode/utf16"
	"unicode/utf8"
)

// decodeCanonical decodes a dataset in the form Dataset.Save writes, in
// one pass over data and without reflection. It reports false, with no
// result, for anything outside that form, so the caller can hand the
// same bytes to encoding/json: an unknown, differently-cased or
// repeated key, a number with a fraction or exponent or out of range,
// invalid UTF-8, a surrogate escape, a value of the wrong type, a
// syntax error or trailing data. What it accepts it decodes exactly as
// json.Unmarshal would: any JSON whitespace, every standard escape,
// null as the zero value (a nil slice or map), [] and {} as empty
// non-nil ones, and created_at through time.Time.UnmarshalJSON.
//
// Every string is interned in a table that lives for this call only:
// a crawl repeats the same methods, resource types, initiators,
// first-party sites, cookie names and values and static URLs thousands
// of times, and each distinct one is allocated once.
func decodeCanonical(data []byte) (*Dataset, bool) {
	d := decoder{data: data, strs: make(map[string]string, 1024)}
	ds := new(Dataset)
	if !d.dataset(ds) {
		return nil, false
	}
	d.ws()
	if d.pos != len(d.data) {
		return nil, false
	}
	return ds, true
}

// decoder is the state of one decodeCanonical call.
type decoder struct {
	data []byte
	pos  int
	// strs interns every decoded string.
	strs map[string]string
	// esc holds a string's bytes while its escapes are decoded.
	esc []byte

	// Each array is staged in one of these, then copied into an exactly
	// sized slice; no array of a type nests inside another of the same
	// type, so one stage per type suffices.
	iters   []*Iteration
	reqs    []RequestRecord
	hops    []HopRecord
	ads     []AdRecord
	cookies []CookieRecord
	stores  []StorageRecord
	names   []string
	pairs   []string
}

// fieldSet records which keys of one object have been decoded, so a
// repeated key declines.
type fieldSet uint32

func (s *fieldSet) first(bit uint) bool {
	if *s&(1<<bit) != 0 {
		return false
	}
	*s |= 1 << bit
	return true
}

func (d *decoder) dataset(ds *Dataset) bool {
	if d.null() {
		return true
	}
	var seen fieldSet
	return d.object(func(key []byte) bool {
		switch string(key) {
		case "version":
			return seen.first(0) && d.int(&ds.Version)
		case "seed":
			return seen.first(1) && d.int64(&ds.Seed)
		case "storage_mode":
			return seen.first(2) && d.str(&ds.StorageMode)
		case "created_at":
			return seen.first(3) && d.time(&ds.CreatedAt)
		case "filter_annotated":
			return seen.first(4) && d.bool(&ds.FilterAnnotated)
		case "iterations":
			return seen.first(5) && array(d, &ds.Iterations, &d.iters, d.iteration)
		}
		return false
	})
}

func (d *decoder) iteration(p **Iteration) bool {
	if d.null() {
		return true
	}
	it := new(Iteration)
	*p = it
	var seen fieldSet
	return d.object(func(key []byte) bool {
		switch string(key) {
		case "engine":
			return seen.first(0) && d.str(&it.Engine)
		case "engine_host":
			return seen.first(1) && d.str(&it.EngineHost)
		case "index":
			return seen.first(2) && d.int(&it.Index)
		case "instance":
			return seen.first(3) && d.str(&it.Instance)
		case "query":
			return seen.first(4) && d.str(&it.Query)
		case "serp_requests":
			return seen.first(5) && array(d, &it.SERPRequests, &d.reqs, d.request)
		case "serp_cookies":
			return seen.first(6) && array(d, &it.SERPCookies, &d.cookies, d.cookie)
		case "displayed_ads":
			return seen.first(7) && array(d, &it.DisplayedAds, &d.ads, d.ad)
		case "clicked_ad":
			return seen.first(8) && d.int(&it.ClickedAd)
		case "click_requests":
			return seen.first(9) && array(d, &it.ClickRequests, &d.reqs, d.request)
		case "hops":
			return seen.first(10) && array(d, &it.Hops, &d.hops, d.hop)
		case "final_url":
			return seen.first(11) && d.str(&it.FinalURL)
		case "final_referrer":
			return seen.first(12) && d.str(&it.FinalReferrer)
		case "dest_requests":
			return seen.first(13) && array(d, &it.DestRequests, &d.reqs, d.request)
		case "cookies":
			return seen.first(14) && array(d, &it.Cookies, &d.cookies, d.cookie)
		case "local_storage":
			return seen.first(15) && array(d, &it.LocalStorage, &d.stores, d.storage)
		case "revisit_cookies":
			return seen.first(16) && array(d, &it.RevisitCookies, &d.cookies, d.cookie)
		case "revisit_local_storage":
			return seen.first(17) && array(d, &it.RevisitLocalStorage, &d.stores, d.storage)
		case "crawler_request_count":
			return seen.first(18) && d.int(&it.CrawlerRequestCount)
		case "extension_request_count":
			return seen.first(19) && d.int(&it.ExtensionRequestCount)
		case "serp_tracker_count":
			return seen.first(20) && d.int(&it.SERPTrackerCount)
		case "click_tracker_count":
			return seen.first(21) && d.int(&it.ClickTrackerCount)
		case "dest_tracker_count":
			return seen.first(22) && d.int(&it.DestTrackerCount)
		case "error":
			return seen.first(23) && d.str(&it.Error)
		case "error_class":
			return seen.first(24) && d.str(&it.ErrorClass)
		case "outcome":
			return seen.first(25) && d.str(&it.Outcome)
		case "rotations":
			return seen.first(26) && d.int(&it.Rotations)
		case "captcha_solves":
			return seen.first(27) && d.int(&it.CaptchaSolves)
		}
		return false
	})
}

func (d *decoder) request(r *RequestRecord) bool {
	if d.null() {
		return true
	}
	var seen fieldSet
	return d.object(func(key []byte) bool {
		switch string(key) {
		case "url":
			return seen.first(0) && d.str(&r.URL)
		case "method":
			return seen.first(1) && d.str(&r.Method)
		case "type":
			return seen.first(2) && d.str(&r.Type)
		case "first_party":
			return seen.first(3) && d.str(&r.FirstParty)
		case "initiator":
			return seen.first(4) && d.str(&r.Initiator)
		case "referrer":
			return seen.first(5) && d.str(&r.Referrer)
		case "third_party":
			return seen.first(6) && d.bool(&r.ThirdParty)
		case "cookies":
			return seen.first(7) && d.stringMap(&r.Cookies)
		}
		return false
	})
}

func (d *decoder) hop(h *HopRecord) bool {
	if d.null() {
		return true
	}
	var seen fieldSet
	return d.object(func(key []byte) bool {
		switch string(key) {
		case "url":
			return seen.first(0) && d.str(&h.URL)
		case "status":
			return seen.first(1) && d.int(&h.Status)
		case "location":
			return seen.first(2) && d.str(&h.Location)
		case "mechanism":
			return seen.first(3) && d.str(&h.Mechanism)
		case "set_cookie_names":
			return seen.first(4) && array(d, &h.SetCookieNames, &d.names, d.str)
		case "retries":
			return seen.first(5) && d.int(&h.Retries)
		case "fault_class":
			return seen.first(6) && d.str(&h.FaultClass)
		}
		return false
	})
}

func (d *decoder) ad(a *AdRecord) bool {
	if d.null() {
		return true
	}
	var seen fieldSet
	return d.object(func(key []byte) bool {
		switch string(key) {
		case "href":
			return seen.first(0) && d.str(&a.Href)
		case "landing_domain":
			return seen.first(1) && d.str(&a.LandingDomain)
		case "position":
			return seen.first(2) && d.int(&a.Position)
		}
		return false
	})
}

func (d *decoder) cookie(c *CookieRecord) bool {
	if d.null() {
		return true
	}
	var seen fieldSet
	return d.object(func(key []byte) bool {
		switch string(key) {
		case "partition_key":
			return seen.first(0) && d.str(&c.PartitionKey)
		case "domain":
			return seen.first(1) && d.str(&c.Domain)
		case "name":
			return seen.first(2) && d.str(&c.Name)
		case "value":
			return seen.first(3) && d.str(&c.Value)
		}
		return false
	})
}

func (d *decoder) storage(s *StorageRecord) bool {
	if d.null() {
		return true
	}
	var seen fieldSet
	return d.object(func(key []byte) bool {
		switch string(key) {
		case "partition_key":
			return seen.first(0) && d.str(&s.PartitionKey)
		case "origin":
			return seen.first(1) && d.str(&s.Origin)
		case "key":
			return seen.first(2) && d.str(&s.Key)
		case "value":
			return seen.first(3) && d.str(&s.Value)
		}
		return false
	})
}

// array decodes a JSON array into an exactly sized slice, staging the
// elements in *stage. null leaves *dst nil; [] makes it empty, not nil.
func array[T any](d *decoder, dst *[]T, stage *[]T, elem func(*T) bool) bool {
	if d.null() {
		return true
	}
	if !d.next('[') {
		return false
	}
	s := (*stage)[:0]
	if !d.next(']') {
		for {
			var zero T
			s = append(s, zero)
			if !elem(&s[len(s)-1]) {
				return false
			}
			if d.next(',') {
				continue
			}
			if !d.next(']') {
				return false
			}
			break
		}
	}
	*dst = make([]T, len(s))
	copy(*dst, s)
	*stage = s
	return true
}

// stringMap decodes a JSON object of strings. null leaves *dst nil; {}
// makes it empty, not nil.
func (d *decoder) stringMap(dst *map[string]string) bool {
	if d.null() {
		return true
	}
	pairs := d.pairs[:0]
	ok := d.object(func(key []byte) bool {
		k := d.intern(key)
		var v string
		if !d.str(&v) {
			return false
		}
		pairs = append(pairs, k, v)
		return true
	})
	if !ok {
		return false
	}
	d.pairs = pairs
	m := make(map[string]string, len(pairs)/2)
	for i := 0; i < len(pairs); i += 2 {
		m[pairs[i]] = pairs[i+1]
	}
	if len(m) != len(pairs)/2 {
		return false // a repeated key
	}
	*dst = m
	return true
}

// object decodes a JSON object, handing each decoded key to member,
// which decodes that member's value.
func (d *decoder) object(member func(key []byte) bool) bool {
	if !d.next('{') {
		return false
	}
	if d.next('}') {
		return true
	}
	for {
		key, ok := d.strBytes()
		if !ok || !d.next(':') || !member(key) {
			return false
		}
		if d.next(',') {
			continue
		}
		return d.next('}')
	}
}

// str decodes a JSON string or null into *dst.
func (d *decoder) str(dst *string) bool {
	if d.null() {
		return true
	}
	b, ok := d.strBytes()
	if !ok {
		return false
	}
	*dst = d.intern(b)
	return true
}

func (d *decoder) intern(b []byte) string {
	if s, ok := d.strs[string(b)]; ok {
		return s
	}
	s := string(b)
	d.strs[s] = s
	return s
}

// strBytes decodes the JSON string at the cursor. The result aliases
// d.data, or d.esc when the string holds escapes, so it is valid only
// until the next call.
func (d *decoder) strBytes() ([]byte, bool) {
	d.ws()
	data := d.data
	if d.pos >= len(data) || data[d.pos] != '"' {
		return nil, false
	}
	start := d.pos + 1
	n := bytes.IndexByte(data[start:], '"')
	if n < 0 {
		return nil, false
	}
	raw := data[start : start+n]
	if bytes.IndexByte(raw, '\\') >= 0 {
		return d.unescape(start)
	}
	if !plainASCII(raw) {
		for _, c := range raw {
			if c < 0x20 {
				return nil, false
			}
		}
		if !utf8.Valid(raw) {
			return nil, false
		}
	}
	d.pos = start + n + 1
	return raw, true
}

// plainASCII reports whether every byte of b is printable ASCII or
// DEL, testing eight bytes per step: a byte below 0x20 borrows and a
// byte from 0x80 up carries its top bit, so either sets a top bit of
// (x - 0x20…20) | x.
func plainASCII(b []byte) bool {
	const lo, hi = 0x2020202020202020, 0x8080808080808080
	for len(b) >= 8 {
		x := binary.LittleEndian.Uint64(b)
		if ((x-lo)|x)&hi != 0 {
			return false
		}
		b = b[8:]
	}
	for _, c := range b {
		if c < 0x20 || c >= utf8.RuneSelf {
			return false
		}
	}
	return true
}

// unescape decodes a string that holds escapes, starting after its
// opening quote, into d.esc.
func (d *decoder) unescape(i int) ([]byte, bool) {
	data := d.data
	b := d.esc[:0]
	ascii := true
	for i < len(data) {
		c := data[i]
		switch {
		case c == '"':
			d.esc = b
			if !ascii && !utf8.Valid(b) {
				return nil, false
			}
			d.pos = i + 1
			return b, true
		case c < 0x20:
			return nil, false
		case c != '\\':
			if c >= utf8.RuneSelf {
				ascii = false
			}
			b = append(b, c)
			i++
			continue
		}
		if i+1 >= len(data) {
			return nil, false
		}
		switch e := data[i+1]; e {
		case '"', '\\', '/':
			b = append(b, e)
		case 'b':
			b = append(b, '\b')
		case 'f':
			b = append(b, '\f')
		case 'n':
			b = append(b, '\n')
		case 'r':
			b = append(b, '\r')
		case 't':
			b = append(b, '\t')
		case 'u':
			r, ok := hex4(data[i+2:])
			if !ok || utf16.IsSurrogate(r) {
				return nil, false
			}
			b = utf8.AppendRune(b, r)
			i += 4
		default:
			return nil, false
		}
		i += 2
	}
	return nil, false
}

// hex4 reads the four hex digits of a \u escape.
func hex4(b []byte) (rune, bool) {
	if len(b) < 4 {
		return 0, false
	}
	var r rune
	for _, c := range b[:4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return 0, false
		}
		r = r<<4 | rune(c)
	}
	return r, true
}

// int64 decodes a JSON integer or null. A fraction, an exponent, a
// leading zero or a value outside int64 declines.
func (d *decoder) int64(dst *int64) bool {
	if d.null() {
		return true
	}
	data, i := d.data, d.pos
	neg := i < len(data) && data[i] == '-'
	if neg {
		i++
	}
	start := i
	var n uint64
	for i < len(data) && '0' <= data[i] && data[i] <= '9' && i-start < 19 {
		n = n*10 + uint64(data[i]-'0')
		i++
	}
	if i == start || (data[start] == '0' && i-start > 1) || i < len(data) && isNumberByte(data[i]) {
		return false
	}
	limit := uint64(math.MaxInt64)
	if neg {
		limit++
	}
	if n > limit {
		return false
	}
	if neg {
		n = -n
	}
	*dst = int64(n)
	d.pos = i
	return true
}

// isNumberByte reports whether c could continue a JSON number.
func isNumberByte(c byte) bool {
	return '0' <= c && c <= '9' || c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-'
}

func (d *decoder) int(dst *int) bool {
	var n int64
	if !d.int64(&n) || int64(int(n)) != n {
		return false
	}
	*dst = int(n)
	return true
}

func (d *decoder) bool(dst *bool) bool {
	switch {
	case d.literal("true"):
		*dst = true
	case d.literal("false"), d.literal("null"):
	default:
		return false
	}
	return true
}

// time decodes a JSON string or null through time.Time.UnmarshalJSON,
// handing it the raw token as encoding/json does.
func (d *decoder) time(t *time.Time) bool {
	if d.null() {
		return true
	}
	start := d.pos
	if _, ok := d.strBytes(); !ok {
		return false
	}
	return t.UnmarshalJSON(d.data[start:d.pos]) == nil
}

func (d *decoder) null() bool { return d.literal("null") }

// literal consumes lit if it comes next, after any whitespace.
func (d *decoder) literal(lit string) bool {
	d.ws()
	if len(d.data)-d.pos < len(lit) || string(d.data[d.pos:d.pos+len(lit)]) != lit {
		return false
	}
	d.pos += len(lit)
	return true
}

// next consumes c if it comes next, after any whitespace.
func (d *decoder) next(c byte) bool {
	d.ws()
	if d.pos < len(d.data) && d.data[d.pos] == c {
		d.pos++
		return true
	}
	return false
}

// ws skips JSON whitespace.
func (d *decoder) ws() {
	for d.pos < len(d.data) {
		if c := d.data[d.pos]; c > ' ' || c != ' ' && c != '\n' && c != '\t' && c != '\r' {
			return
		}
		d.pos++
	}
}
