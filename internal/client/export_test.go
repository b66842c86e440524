package client

// Groups reports how many stream groups the client holds.
func (c *Client) Groups() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.groups)
}
