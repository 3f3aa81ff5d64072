package server

// Integrity endpoints and the background scrubber: a relation's signed
// Merkle root, inclusion and consistency proofs a client verifies
// locally, an on-demand verify-and-repair pass, and the /metrics
// integrity section. The proofs and repairs themselves live in
// internal/integrity and internal/catalog; the handlers here only
// parse, encode, and map errors.

import (
	"context"
	"net/http"
	"strconv"
	"strings"

	"repro/internal/catalog"
	"repro/internal/integrity"
	"repro/internal/wire"
)

// RunScrubber runs the background integrity scrub loop until ctx ends:
// one full pass over every sealed artifact per ScrubInterval, reads
// paced at ScrubRate. It returns immediately when the catalog has
// integrity tracking disabled or no interval is configured, so callers
// can always `go srv.RunScrubber(ctx)`.
func (s *Server) RunScrubber(ctx context.Context) {
	if s.scrubber == nil || s.cfg.ScrubInterval <= 0 {
		return
	}
	s.scrubber.Run(ctx, s.cfg.ScrubInterval, nil)
}

// Scrubber exposes the server's scrubber (nil when integrity tracking
// is disabled) so an operator process can drive passes directly.
func (s *Server) Scrubber() *integrity.Scrubber { return s.scrubber }

// signedRootInfo renders a signed root for the wire.
func signedRootInfo(sr integrity.SignedRoot) wire.SignedRootInfo {
	root := sr.Root
	return wire.SignedRootInfo{
		Rel: sr.Rel, Size: sr.Size, Root: root[:], Sig: sr.Sig, Key: sr.Key,
	}
}

// integrityProvenance stamps a relation's Merkle provenance onto its
// physical-design report: how many committed frames the tree covers,
// the current root, and the quarantine cause when degraded.
func integrityProvenance(out *wire.PhysicalInfo, e *catalog.Entry) {
	if size, root, tracked := e.MerkleHead(); tracked {
		out.MerkleSize = size
		out.MerkleRoot = root[:]
	}
	out.Quarantined = e.QuarantineCause()
}

// mapIntegrityErr classifies proof-endpoint failures: tracking disabled
// is an availability condition, everything else (index out of range,
// bad prefix size) is the caller's request.
func mapIntegrityErr(err error) *apiError {
	if strings.Contains(err.Error(), "disabled") {
		return errUnavailable("%s", err.Error())
	}
	return errBadRequest("%s", err.Error())
}

// handleIntegrity reports a relation's integrity state: the Merkle tree
// size, the current root, and a signature covering exactly that state
// (absent on followers, which serve unsigned roots).
func (s *Server) handleIntegrity(r *http.Request) (*response, *apiError) {
	e, aerr := s.entry(r)
	if aerr != nil {
		return nil, aerr
	}
	st := e.IntegrityState()
	out := wire.IntegrityResponse{
		Rel:         r.PathValue("name"),
		Tracked:     st.Tracked,
		Quarantined: st.Quarantined,
	}
	if st.Tracked {
		root := st.Root
		out.Size = st.Size
		out.Root = root[:]
		sri := signedRootInfo(st.Signed)
		out.Signed = &sri
	}
	return &response{body: out}, nil
}

// handleIntegrityProof serves an inclusion proof for the index-th
// committed frame, with a root signed over exactly the tree size the
// proof verifies against. The proof crosses the wire in its binary
// encoding so the client checks the bytes the server committed to.
func (s *Server) handleIntegrityProof(r *http.Request) (*response, *apiError) {
	e, aerr := s.entry(r)
	if aerr != nil {
		return nil, aerr
	}
	raw := r.URL.Query().Get("index")
	if raw == "" {
		return nil, errBadRequest("need ?index=I (the committed frame's position)")
	}
	idx, err := strconv.ParseUint(raw, 10, 64)
	if err != nil {
		return nil, errBadRequest("bad index %q", raw)
	}
	leaf, proof, signed, err := e.InclusionProof(idx)
	if err != nil {
		return nil, mapIntegrityErr(err)
	}
	enc, err := integrity.EncodeProof(proof)
	if err != nil {
		return nil, &apiError{http.StatusInternalServerError, wire.CodeInternal, err.Error()}
	}
	return &response{body: wire.ProofResponse{
		Rel:    r.PathValue("name"),
		Index:  idx,
		Leaf:   leaf[:],
		Proof:  enc,
		Signed: signedRootInfo(signed),
	}}, nil
}

// handleIntegrityConsistency proves the current tree extends its
// size-from prefix: history since the client's anchor was appended to,
// never rewritten.
func (s *Server) handleIntegrityConsistency(r *http.Request) (*response, *apiError) {
	e, aerr := s.entry(r)
	if aerr != nil {
		return nil, aerr
	}
	raw := r.URL.Query().Get("from")
	if raw == "" {
		return nil, errBadRequest("need ?from=M (the anchored tree size)")
	}
	from, err := strconv.ParseUint(raw, 10, 64)
	if err != nil {
		return nil, errBadRequest("bad from %q", raw)
	}
	proof, oldRoot, signed, err := e.ConsistencyProof(from)
	if err != nil {
		return nil, mapIntegrityErr(err)
	}
	enc, err := integrity.EncodeProof(proof)
	if err != nil {
		return nil, &apiError{http.StatusInternalServerError, wire.CodeInternal, err.Error()}
	}
	return &response{body: wire.ConsistencyResponse{
		Rel:     r.PathValue("name"),
		From:    from,
		OldRoot: oldRoot[:],
		Proof:   enc,
		Signed:  signedRootInfo(signed),
	}}, nil
}

// handleVerify synchronously verifies every artifact covering the
// relation — snapshot shard, zone maps, sealed WAL segments — and
// repairs what it can, exactly as the background scrubber would.
func (s *Server) handleVerify(r *http.Request) (*response, *apiError) {
	name := r.PathValue("name")
	rep, err := s.cat.VerifyRelation(name)
	if err != nil {
		return nil, mapError(err)
	}
	return &response{body: rep, touched: rep.Artifacts}, nil
}

// integrityMetrics builds the /metrics integrity section, or nil when
// the catalog runs without integrity tracking.
func (s *Server) integrityMetrics() *wire.IntegrityMetrics {
	out := s.cat.IntegrityStats()
	if !out.Enabled {
		return nil
	}
	if s.scrubber != nil {
		ss := s.scrubber.Stats()
		out.ScrubPasses = ss.Passes
		out.ScrubArtifacts = ss.Artifacts
		out.ScrubBytes = ss.Bytes
		out.ScrubFailures = ss.Failures
		out.LastScrubUnix = ss.LastPass
	}
	return &out
}
