package server

import (
	"bytes"
	"io"
	"net/http"
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

// DecodeBatchBothWays reads body the way the handler does (decode, into
// wire.BatchInsertions) and with batchOracle — the strict json.Decoder
// into the wire request, then checkBatch and ToInsertions — for the
// differential fuzzer.
func DecodeBatchBothWays(body []byte) (handler, plain BatchDecoded) {
	read := func(ins wire.BatchInsertions, aerr *apiError) BatchDecoded {
		if aerr != nil {
			return BatchDecoded{Status: aerr.status, Message: aerr.message}
		}
		return BatchDecoded{Insertions: ins}
	}
	return DecodeBatchHandler(body), read(batchOracle(bytes.NewReader(body)))
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

// decodeBatch is the batch handler's decode.
func decodeBatch(r *http.Request) (wire.BatchInsertions, *apiError) {
	var ins wire.BatchInsertions
	aerr := decode(r, &ins)
	return ins, aerr
}

// batchOracle is the oracle of the batch body: what the strict
// json.Decoder makes of it as a wire request, then the refusal of an empty
// batch or of keys that do not parallel its elements, then ToInsertions.
func batchOracle(body io.Reader) (wire.BatchInsertions, *apiError) {
	var req wire.BatchInsertRequest
	if aerr := decodeJSON(body, &req); aerr != nil {
		return wire.BatchInsertions{}, aerr
	}
	switch n, k := len(req.Elements), len(req.Keys); {
	case n == 0:
		return wire.BatchInsertions{}, errBadRequest("empty batch")
	case k != 0 && k != n:
		return wire.BatchInsertions{}, errBadRequest("batch carries %d keys for %d elements", k, n)
	}
	ins, err := req.ToInsertions()
	if err != nil {
		return wire.BatchInsertions{}, errBadRequest("%s", err.Error())
	}
	return ins, nil
}

// Decoded is one way's reading of a request body: the value it decoded, or
// the status and message it refused the body with.
type Decoded struct {
	Value   any
	Status  int
	Message string
}

// DecodeBothWays reads body into a fresh T the way the handlers do
// (decode: T's own parser) and with decodeJSON alone, for the differential
// fuzzers.
func DecodeBothWays[T any](body []byte) (handler, plain Decoded) {
	var p T
	return DecodeHandler[T](body), decoded(&p, decodeJSON(bytes.NewReader(body), &p))
}

// DecodeHandler is the handler's half of DecodeBothWays alone: what a cost
// bound on the server's decode measures.
func DecodeHandler[T any](body []byte) Decoded {
	var h T
	return decoded(&h, decode(httptest.NewRequest("POST", "/", bytes.NewReader(body)), &h))
}

func decoded[T any](v *T, aerr *apiError) Decoded {
	if aerr != nil {
		return Decoded{Status: aerr.status, Message: aerr.message}
	}
	return Decoded{Value: *v}
}
