package ntb

// PortSnapshot is a frozen image of a port's guest-visible device state:
// the scratchpad file, doorbell status and mask registers, and the dirty
// extent of each inbound memory window. Window bytes are copied at
// capture time — after a quiescent prefix the dirty residue is small
// protocol state (pipelined slot headers, boot spad mirrors), not bulk
// payload, and Inbound() hands out long-lived aliases that rule out the
// heap's page-granular copy-on-write here. Neither the image nor Restore
// depends on how far a window is backed: a window is backed only as far
// as it was addressed, Restore grows the target's backing to cover the
// captured extent, and everything outside it reads as zero on both
// sides. The DMA engine must be idle at capture, so its queue needs no
// image.
type PortSnapshot struct {
	spads  []uint32
	db     uint16
	dbMask uint16
	win    [numRegions][]byte // dirty-extent contents, captured copies
	dirty  [numRegions]extent
}

// Snapshot captures the port's register surface and window residue.
func (p *Port) Snapshot() *PortSnapshot {
	p.dma.assertIdle("snapshot")
	s := &PortSnapshot{db: p.db, dbMask: p.dbMask}
	s.spads = append([]uint32(nil), p.spads...)
	for r := range p.inbound {
		d := p.winDirty[r]
		s.dirty[r] = d
		if d.hi > d.lo {
			s.win[r] = append([]byte(nil), p.inbound[r][d.lo:d.hi]...)
		}
	}
	return s
}

// Restore writes a snapshot's state back onto a freshly Reset port: the
// register surface is replaced and each window's captured dirty extent
// is copied in (the rest of the window is already zero, as it was when
// the snapshot was taken). The LUT is intentionally not part of the
// snapshot for the same reason Reset retains it: boot reprograms the
// same entries, so enforced-vs-fresh is indistinguishable to window
// transactions.
func (p *Port) Restore(s *PortSnapshot) {
	p.dma.assertIdle("restore")
	copy(p.spads, s.spads)
	p.db, p.dbMask = s.db, s.dbMask
	for r := range p.inbound {
		d := s.dirty[r]
		p.winDirty[r] = d
		if d.hi > d.lo {
			copy(p.window(Region(r), d.hi)[d.lo:], s.win[r])
		}
	}
}
