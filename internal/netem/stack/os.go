// Package stack implements endpoint transport stacks for the simulator:
// a multi-flow TCP/UDP server, a TCP/UDP client, and IPv4 reassembly, with
// per-operating-system validation profiles.
//
// The OS profiles encode the "Server Response" columns of Table 3 in the
// lib·erate paper: which malformed packets each endpoint OS silently
// drops (making them usable as unilateral inert packets) and which it
// delivers or reacts to (side effects that break transport- or
// application-layer integrity).
package stack

import "repro/internal/netem/packet"

// OSProfile describes how an endpoint operating system treats malformed
// packets.
type OSProfile struct {
	Name string
	// DropDefects are silently discarded before any transport processing.
	DropDefects packet.DefectSet
	// RSTOnInvalidFlags makes the host answer a nonsensical TCP flag
	// combination on an established connection with a RST (observed on
	// Windows — Table 3 note 6), killing the connection.
	RSTOnInvalidFlags bool
	// UDPShortLengthTruncates delivers a datagram whose UDP Length field
	// claims fewer bytes than arrived, truncated to the claimed length
	// (observed on Linux — Table 3 note 5). When false such datagrams are
	// dropped.
	UDPShortLengthTruncates bool
	// ICMPOnUnknownProto answers an unknown IP protocol number with an
	// ICMP protocol-unreachable.
	ICMPOnUnknownProto bool
}

// commonDrops are the defects every mainstream OS rejects.
var commonDrops = packet.SetOf(
	packet.DefectTruncated,
	packet.DefectIPVersion,
	packet.DefectIPHeaderLength,
	packet.DefectIPTotalLengthLong,
	packet.DefectIPTotalLengthShort,
	packet.DefectIPChecksum,
	packet.DefectIPProtocol,
	packet.DefectTCPChecksum,
	packet.DefectTCPDataOffset,
	packet.DefectTCPNoACK,
	packet.DefectUDPChecksum,
	packet.DefectUDPLengthLong,
)

// Linux matches the Table 3 Linux column: accepts packets carrying invalid
// or deprecated IP options (delivering their payload — a side effect that
// makes those inert techniques unsafe against Linux servers), truncates
// short-length UDP datagrams, and silently drops invalid flag combinations.
var Linux = OSProfile{
	Name:                    "linux",
	DropDefects:             commonDrops.Add(packet.DefectTCPFlagCombo),
	UDPShortLengthTruncates: true,
	ICMPOnUnknownProto:      true,
}

// MacOS matches the Table 3 Mac column: like Linux but short-length UDP
// datagrams are dropped rather than truncated.
var MacOS = OSProfile{
	Name:               "macos",
	DropDefects:        commonDrops.Add(packet.DefectTCPFlagCombo).Add(packet.DefectUDPLengthShort),
	ICMPOnUnknownProto: true,
}

// Windows matches the Table 3 Windows column: drops packets with invalid
// IP options (making that technique safely inert against Windows servers,
// unlike Linux/macOS), still delivers deprecated options, and answers
// invalid TCP flag combinations with a RST.
var Windows = OSProfile{
	Name: "windows",
	DropDefects: commonDrops.
		Add(packet.DefectIPOptionInvalid).
		Add(packet.DefectUDPLengthShort),
	RSTOnInvalidFlags:  true,
	ICMPOnUnknownProto: true,
}

// OSProfiles lists the three evaluated endpoint profiles in paper order.
func OSProfiles() []OSProfile { return []OSProfile{Linux, MacOS, Windows} }

// OSByName returns the built-in profile named name ("linux", "macos" or
// "windows"), or nil for any other name.
func OSByName(name string) *OSProfile {
	for _, p := range []*OSProfile{&Linux, &MacOS, &Windows} {
		if p.Name == name {
			return p
		}
	}
	return nil
}

// Accepts reports whether a packet with the given defects passes the OS
// validation layer. The second result is true when the packet is rejected
// *with* a RST response rather than silently.
func (o OSProfile) Accepts(defects packet.DefectSet) (ok, rst bool) {
	if defects.Empty() {
		return true, false
	}
	if o.RSTOnInvalidFlags && defects.Has(packet.DefectTCPFlagCombo) {
		return false, true
	}
	if defects.Intersects(o.DropDefects) {
		return false, false
	}
	return true, false
}
