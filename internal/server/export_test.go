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
	handler = read(decodeBatch(httptest.NewRequest("POST", "/", bytes.NewReader(body))))
	plain = read(decodeBatchJSON(bytes.NewReader(body)))
	return handler, plain
}
