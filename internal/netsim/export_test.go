package netsim

// Unregister removes a peer.
func (n *Network) Unregister(id PeerID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.handlers, id)
}
