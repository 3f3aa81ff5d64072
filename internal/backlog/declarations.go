package backlog

import (
	"fmt"

	"repro/internal/chronon"
	"repro/internal/constraint"
	"repro/internal/core"
)

// EncodeDeclarations serializes the constraint catalog (also the WAL
// declare payload).
func EncodeDeclarations(decls []constraint.Descriptor) []byte {
	var e enc
	e.u16(uint16(len(decls)))
	for _, d := range decls {
		e.u8(uint8(d.Kind))
		e.u8(uint8(d.Class))
		e.u8(uint8(d.Scope))
		e.u8(uint8(d.Basis))
		e.u8(uint8(d.Endpoint))
		e.i64(int64(d.Granularity))
		e.u16(uint16(len(d.Bounds)))
		for _, b := range d.Bounds {
			e.i64(b.Seconds)
			e.i64(b.Months)
		}
	}
	return e.b
}

// DecodeDeclarations deserializes the constraint catalog and verifies each
// descriptor reconstructs (so corrupt catalogs fail at load, not at first
// transaction).
func DecodeDeclarations(b []byte) ([]constraint.Descriptor, error) {
	d := dec{b: b}
	n := int(d.u16())
	out := make([]constraint.Descriptor, 0, min(n, len(d.b))) // each takes bytes: trust no count past them
	for i := 0; i < n && d.err == nil; i++ {
		desc := constraint.Descriptor{
			Kind:     constraint.DescriptorKind(d.u8()),
			Class:    core.Class(d.u8()),
			Scope:    constraint.Scope(d.u8()),
			Basis:    core.TTBasis(d.u8()),
			Endpoint: core.VTEndpoint(d.u8()),
		}
		desc.Granularity = chronon.Granularity(d.i64())
		nb := int(d.u16())
		for j := 0; j < nb && d.err == nil; j++ {
			desc.Bounds = append(desc.Bounds, chronon.Duration{
				Seconds: d.i64(),
				Months:  d.i64(),
			})
		}
		out = append(out, desc)
	}
	if d.err != nil {
		return nil, d.err
	}
	if len(d.b) != 0 {
		return nil, fmt.Errorf("%w: trailing declaration bytes", ErrCorrupt)
	}
	for _, desc := range out {
		if _, err := desc.Build(); err != nil {
			return nil, fmt.Errorf("backlog: invalid persisted declaration: %w", err)
		}
	}
	return out, nil
}
