package mitigation

// TRRRefreshes returns how many targeted refreshes g has issued.
func (g *Guard) TRRRefreshes() int64 { return g.trrRefreshes }
