package plan

// Window aggregates take the access path Build picks for their valid-time
// clamp: it bounds the chunk loop every aggregate runs. How each chunk is
// folded is not a planning decision — every chunk the memo cannot answer is
// folded row at a time where its elements lie — and by snapshot reducibility
// no fold kernel could change the answer.

// NewWindowAggregate wraps a node in the window-aggregate operator; note
// describes the aggregate list and window geometry for EXPLAIN.
func NewWindowAggregate(in *Node, note string) *Node {
	return &Node{Kind: WindowAggregate, Note: note, Est: in.Est, Input: in}
}
