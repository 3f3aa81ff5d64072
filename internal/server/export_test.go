package server

import (
	"bytes"
	"net/http/httptest"

	"repro/internal/wire"
)

// BatchDecoded is one way's reading of an elements:batch body: the
// insertions it builds, or the status and message it refuses the body with.
type BatchDecoded struct {
	Insertions wire.BatchInsertions
	Status     int
	Message    string
}

// DecodeBatchBothWays reads body the way the handler does (decodeBatch: the
// fast parse straight into insertions, and what it hands on) and with
// decodeBatchJSON alone — the strict json.Decoder into the wire request,
// then ToInsertions — for the differential fuzzer.
func DecodeBatchBothWays(body []byte) (handler, plain BatchDecoded) {
	read := func(ins wire.BatchInsertions, aerr *apiError) BatchDecoded {
		if aerr != nil {
			return BatchDecoded{Status: aerr.status, Message: aerr.message}
		}
		return BatchDecoded{Insertions: ins}
	}
	return DecodeBatchHandler(body), read(decodeBatchJSON(bytes.NewReader(body)))
}

// DecodeBatchHandler is the handler's half of DecodeBatchBothWays alone:
// what a cost bound on the server's decode measures.
func DecodeBatchHandler(body []byte) BatchDecoded {
	ins, aerr := decodeBatch(httptest.NewRequest("POST", "/", bytes.NewReader(body)))
	if aerr != nil {
		return BatchDecoded{Status: aerr.status, Message: aerr.message}
	}
	return BatchDecoded{Insertions: ins}
}

// Decoded is one way's reading of a request body: the value it decoded, or
// the status and message it refused the body with.
type Decoded struct {
	Value   any
	Status  int
	Message string
}

// DecodeBothWays reads body into a fresh T the way the handlers do (decode:
// T's own parser first, the strict json.Decoder for whatever it hands back)
// and with decodeJSON alone, for the differential fuzzers.
func DecodeBothWays[T any](body []byte) (handler, plain Decoded) {
	read := func(v *T, aerr *apiError) Decoded {
		if aerr != nil {
			return Decoded{Status: aerr.status, Message: aerr.message}
		}
		return Decoded{Value: *v}
	}
	var h, p T
	handler = read(&h, decode(httptest.NewRequest("POST", "/", bytes.NewReader(body)), &h))
	plain = read(&p, decodeJSON(bytes.NewReader(body), &p))
	return handler, plain
}
