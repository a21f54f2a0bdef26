package xmltree

// Kept returns the encoding kept on n, nil when it keeps none.
func Kept(n *Node) []byte {
	if m := n.memo.Load(); m != nil {
		return *m
	}
	return nil
}

// ParseCorpus is FuzzParse's seed inputs.
func ParseCorpus() []string { return parseCorpus() }
