package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math/rand"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// digitRun is eightDigits one byte at a time.
func digitRun(b [8]byte) (val uint64, k int) {
	for k < 8 && b[k]-'0' <= 9 {
		val = val*10 + uint64(b[k]-'0')
		k++
	}
	return val, k
}

// TestEightDigits holds the SWAR step to the byte loop: every run length
// ended by every byte that is nearly a digit — the neighbours of '0' and
// '9', and 0xFA–0xFF, which a careless lane test lets carry into the next
// lane — and seeded random words.
func TestEightDigits(t *testing.T) {
	check := func(b [8]byte) {
		t.Helper()
		wantVal, wantK := digitRun(b)
		if val, k := eightDigits(binary.LittleEndian.Uint64(b[:])); val != wantVal || k != wantK {
			t.Fatalf("eightDigits(%q) = %d, %d digits; the byte loop reads %d, %d", b[:], val, k, wantVal, wantK)
		}
	}
	for lane := 0; lane < 8; lane++ {
		for _, c := range []byte{0x00, '/', ':', 0x7F, 0x80, 0xB0, 0xFA, 0xFB, 0xFC, 0xFD, 0xFE, 0xFF} {
			for _, fill := range []byte{'0', '9', '5', c} {
				b := [8]byte{'9', '8', '7', '6', '5', '4', '3', '2'}
				for j := lane + 1; j < 8; j++ {
					b[j] = fill // what follows the first other byte must not matter
				}
				b[lane] = c
				check(b)
			}
		}
	}
	check([8]byte{'0', '0', '0', '0', '0', '0', '0', '0'})
	check([8]byte{'9', '9', '9', '9', '9', '9', '9', '9'})
	rng := rand.New(rand.NewSource(22))
	for n := 0; n < 200000; n++ {
		var b [8]byte
		for j := range b {
			switch rng.Intn(8) {
			case 0:
				b[j] = byte(rng.Intn(256))
			case 1:
				b[j] = "/:\xfa\xff,}]e."[rng.Intn(9)]
			default:
				b[j] = '0' + byte(rng.Intn(10))
			}
		}
		check(b)
	}
}

// TestIntegerKernel holds num, i64 and u64 to encoding/json — the JSON
// number grammar over strconv's range checks — on the edges of the
// overflow rule and of the eight-byte steps. A number is never the end of
// a document, so "the whole input was the number" stands for "the literal
// that follows would have matched".
func TestIntegerKernel(t *testing.T) {
	cases := []string{
		"0", "-0", "1", "-1", "9", "10", "00", "01", "-01", "0123456789", "007",
		"9223372036854775807", "9223372036854775808", "-9223372036854775808", "-9223372036854775809",
		"18446744073709551615", "18446744073709551616", "-18446744073709551615",
		"999999999999999999", "1000000000000000000", // 18 | 19 digits
		"9999999999999999999", "10000000000000000000", // 19 | 20
		"19999999999999999999", "20000000000000000000", "28446744073709551616", // 2⁶⁴ + 10¹⁹ wraps to twenty digits
		"36893488147419103232", "99999999999999999999", "100000000000000000000", // 2⁶⁵, 20 | 21
		"184467440737095516150", "999999999999999999999", "1" + strings.Repeat("0", 40),
		"1.0", "1e3", "1E3", "1.", "-", "", "+1", "1-", "0x10", "1_000", "١",
	}
	for n := 1; n <= 24; n++ { // a run cut by the end of the input at every offset of the step
		cases = append(cases, "1234567890123456789012345"[:n], "-"+"9876543210987654321098765"[:n])
	}
	for lane := 0; lane < 8; lane++ { // a byte that is nearly a digit, in each lane of both steps
		for _, c := range []byte{'/', ':', 0xFA, 0xFF} {
			cases = append(cases, "1234567"[:lane]+string(c)+"89", "12345678"+"1234567"[:lane]+string(c))
		}
	}
	for _, s := range cases {
		for _, pad := range []string{"", "x", "xxxxxxx"} { // the number need not start the input
			p := newParser([]byte(pad + s))
			p.i = len(pad)
			got := p.i64()
			ok := !p.bad && p.i == len(p.src)
			var want int64
			if err := json.Unmarshal([]byte(s), &want); (err == nil) != ok || ok && got != want {
				t.Errorf("i64(%q) = %d, accepted %v; encoding/json: %d, %v", s, got, ok, want, err)
			} else if x, perr := strconv.ParseInt(s, 10, 64); ok && (perr != nil || x != got) {
				t.Errorf("i64(%q) = %d; strconv.ParseInt: %d, %v", s, got, x, perr)
			}

			p = newParser([]byte(pad + s))
			p.i = len(pad)
			ugot := p.u64()
			ok = !p.bad && p.i == len(p.src)
			var uwant uint64
			if err := json.Unmarshal([]byte(s), &uwant); (err == nil) != ok || ok && ugot != uwant {
				t.Errorf("u64(%q) = %d, accepted %v; encoding/json: %d, %v", s, ugot, ok, uwant, err)
			} else if x, perr := strconv.ParseUint(s, 10, 64); ok && (perr != nil || x != ugot) {
				t.Errorf("u64(%q) = %d; strconv.ParseUint: %d, %v", s, ugot, x, perr)
			}
		}
	}

	// Where the run stops is where the next literal is looked for.
	p := newParser([]byte(`1700000000,"x"`))
	if neg, mag := p.num(); neg || mag != 1700000000 || p.i != 10 || p.bad {
		t.Errorf("num stopped at %d with %v %d, bad %v", p.i, neg, mag, p.bad)
	}
}

// TestRefusalIsCheap bounds what a hostile body can make the parser
// spend. p.bad is sticky and the shape is read on to its end, so every
// item loop must stop taking turns once it is set: a megabyte of commas —
// one refused item each — would otherwise hand out a slab item per byte,
// re-allocating and copying the run as it grows. After a refusal the
// parser may have allocated what extrapolate sized from an accepted first
// item (a few times the input, once), and nothing per refused item.
func TestRefusalIsCheap(t *testing.T) {
	const size = 1 << 20 // server.Config.MaxBodyBytes' default
	parse := map[string]func([]byte) error{
		"insert":         func(b []byte) error { return new(InsertRequest).ParseJSON(b) },
		"batch request":  func(b []byte) error { return new(BatchInsertions).ParseJSON(b) },
		"query response": func(b []byte) error { return new(QueryResponse).ParseJSON(b) },
		"batch response": func(b []byte) error { return new(BatchInsertResponse).ParseJSON(b) },
		"select":         func(b []byte) error { return new(SelectResponse).ParseJSON(b) },
	}
	const el = `{"es":1,"os":1,"tt_start":1,"tt_end":9223372036854775807,"current":true,"vt":{}`
	// A memo that holds the element, and another with an attribute list: a
	// copy from it, before the commas, is an accepted first item.
	const el2 = `{"es":2,"os":1,"tt_start":1,"tt_end":9223372036854775807,"current":true,"vt":{}`
	warm := &ElementMemo{Max: 1 << 20}
	if err := new(QueryResponse).ParseJSONMemo([]byte(`{"elements":[`+el+`},`+el2+`,"invariant":[{"kind":"null"}]}],"touched":0}`), warm); err != nil {
		t.Fatal(err)
	}
	parse["query response (warm memo)"] = func(b []byte) error { return new(QueryResponse).ParseJSONMemo(b, warm) }
	for _, c := range []struct {
		shape, head string
		first       bool // an item is accepted before the commas: extrapolate has sized the slabs
	}{
		{"insert", `{"vt":{},"varying":[`, false},
		{"insert", `{"vt":{},"varying":[{"kind":"int","int":1}`, true},
		{"insert", `{"vt":{},"user_times":[`, false},
		{"insert", `{"vt":{},"user_times":[1`, true},
		{"batch request", `{"elements":[`, false},
		{"batch request", `{"elements":[{"vt":{}}`, true},
		{"batch request", `{"elements":[{"vt":{},"varying":[{"kind":"null"}`, true},
		{"batch request", `{"elements":[{"vt":{},"varying":[{"kind":"zebra"}`, true},
		{"batch request", `{"elements":[{"vt":{},"user_times":[`, false},
		{"batch request", `{"elements":[{"vt":{},"user_times":[1`, true},
		{"batch request", `{"elements":[],"keys":[`, false},
		{"batch request", `{"elements":[],"keys":[""`, true},
		{"query response", `{"elements":[` + el + `}`, true},
		{"query response", `{"elements":[` + el + `,"invariant":[{"kind":"null"}`, true},
		{"query response (warm memo)", `{"elements":[`, false},
		{"query response (warm memo)", `{"elements":[` + el + `}`, true},
		{"query response (warm memo)", `{"elements":[` + el + `},` + el2 + `,"invariant":[{"kind":"null"}]}`, true},
		{"query response (warm memo)", `{"elements":[` + el2 + `,"invariant":[{"kind":"null"}]}`, true},
		{"query response (warm memo)", `{"elements":[` + el + `},` + el2 + `,"invariant":[{"kind":"null"}`, true},
		{"batch response", `{"items":[{"status":"stored","element":` + el + `}}`, true},
		{"batch response", `{"items":[{"status":"stored","assigned":{"es":1,"os":1,"tt_start":1}}`, true},
		{"batch response", `{"items":[{"status":"stored","assigned":{"es":`, false},
		{"batch request", `{"elements":[{"vt":{}}],"keys":["k"],"atomic":true,"brief":`, true},
		{"select", `{"columns":["a"`, true},
		{"select", `{"columns":[],"rows":[[`, false},
		{"select", `{"columns":[],"rows":[[{"kind":"null"}]`, true},
	} {
		body := append([]byte(c.head), bytes.Repeat([]byte{','}, size-len(c.head))...)
		const runs = 3
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		allocs := testing.AllocsPerRun(runs, func() {
			if parse[c.shape](body) == nil {
				t.Fatalf("%s: %s,,,… was accepted", c.shape, c.head)
			}
		})
		runtime.ReadMemStats(&after)
		spent := (after.TotalAlloc - before.TotalAlloc) / (runs + 1) // AllocsPerRun warms up once
		budget := uint64(4 << 10)
		if c.first {
			budget = 8 * size
		}
		if allocs > 8 || spent > budget {
			t.Errorf("%s: refusing %s,,,… (1 MiB) took %.0f allocations and %d bytes; budget 8 and %d", c.shape, c.head, allocs, spent, budget)
		}
	}
}
