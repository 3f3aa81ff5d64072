package client

// CondCacheSize is the bound on each conditional cache.
const CondCacheSize = condCacheSize

// CachedAnswers reports how many answers QueryCached and SelectCached hold.
func (c *Client) CachedAnswers() (queries, selects int) {
	return c.qcache.lru.Len(), c.scache.lru.Len()
}

// ElementMemoBytes is the bound on a client's element memo.
const ElementMemoBytes = elementMemoBytes
