//! The symbolic packet space for ACL analysis (Batfish `searchFilters`).

use clarify_bdd::{Cube, Manager, Ref};
use clarify_netconfig::AclEntry;
use clarify_nettypes::{Packet, PortRange, Protocol};

use crate::first_match::encode_network;

/// The symbolic input space of ACL analysis: 32-bit source and destination
/// addresses, a 2-bit protocol code, and 16-bit source/destination ports.
pub struct PacketSpace {
    mgr: Manager,
    src_vars: Vec<u32>,
    dst_vars: Vec<u32>,
    proto_vars: Vec<u32>,
    sport_vars: Vec<u32>,
    dport_vars: Vec<u32>,
    valid: Ref,
    /// Pins `valid` across the manager's collections (never unprotected).
    _valid_root: clarify_bdd::Root,
}

impl Default for PacketSpace {
    fn default() -> Self {
        Self::new()
    }
}

impl PacketSpace {
    /// Builds the (configuration-independent) packet space.
    pub fn new() -> PacketSpace {
        let _span = clarify_obs::span!("packet_space_build");
        clarify_obs::global()
            .counter("analysis.packet_space_builds")
            .incr();
        let mut next = 0u32;
        let mut take = |n: u32| -> Vec<u32> {
            let v: Vec<u32> = (next..next + n).collect();
            next += n;
            v
        };
        let src_vars = take(32);
        let dst_vars = take(32);
        let proto_vars = take(2);
        let sport_vars = take(16);
        let dport_vars = take(16);
        // 98 variables and range-heavy ACL encodings: pre-size for the
        // typical footprint of a lint/disambiguation pass so the unique
        // table skips its early rehash ladder.
        let mut mgr = Manager::with_capacity(next, 1 << 14);
        // Protocol code 0 is the `ip` wildcard, never a concrete packet.
        let valid = mgr.ge_const(&proto_vars, 1);
        // Pin it and let the kernel collect unrooted garbage between work
        // items.
        let valid_root = mgr.protect(valid);
        mgr.set_auto_gc(true);
        PacketSpace {
            mgr,
            src_vars,
            dst_vars,
            proto_vars,
            sport_vars,
            dport_vars,
            valid,
            _valid_root: valid_root,
        }
    }

    /// The BDD manager.
    pub fn manager(&mut self) -> &mut Manager {
        &mut self.mgr
    }

    /// The set of assignments that decode to well-formed packets.
    pub fn valid(&self) -> Ref {
        self.valid
    }

    fn encode_ports(&mut self, vars: &[u32], r: &PortRange) -> Ref {
        if r.is_any() {
            Ref::TRUE
        } else {
            self.mgr.range_const(vars, u64::from(r.lo), u64::from(r.hi))
        }
    }

    /// Encodes one ACL entry's match set.
    pub fn encode_entry(&mut self, e: &AclEntry) -> Ref {
        let mut acc = match e.protocol {
            Protocol::Ip => Ref::TRUE,
            p => self
                .mgr
                .eq_const(&self.proto_vars.clone(), u64::from(p.code())),
        };
        let src = encode_network(&mut self.mgr, &self.src_vars, &e.src.as_prefix());
        acc = self.mgr.and(acc, src);
        let dst = encode_network(&mut self.mgr, &self.dst_vars, &e.dst.as_prefix());
        acc = self.mgr.and(acc, dst);
        let sp = self.encode_ports(&self.sport_vars.clone(), &e.src_ports);
        acc = self.mgr.and(acc, sp);
        let dp = self.encode_ports(&self.dport_vars.clone(), &e.dst_ports);
        acc = self.mgr.and(acc, dp);
        acc
    }

    /// Encodes a concrete packet as a point.
    pub fn encode_packet(&mut self, p: &Packet) -> Ref {
        let mut acc = Ref::TRUE;
        let fields: [(Vec<u32>, u64); 5] = [
            (self.src_vars.clone(), u64::from(u32::from(p.src_ip))),
            (self.dst_vars.clone(), u64::from(u32::from(p.dst_ip))),
            (self.proto_vars.clone(), u64::from(p.protocol.code())),
            (self.sport_vars.clone(), u64::from(p.src_port)),
            (self.dport_vars.clone(), u64::from(p.dst_port)),
        ];
        for (vars, value) in fields {
            let enc = self.mgr.eq_const(&vars, value);
            acc = self.mgr.and(acc, enc);
        }
        acc
    }

    /// Decodes a satisfying assignment into a concrete packet.
    pub fn decode_packet(&self, cube: &Cube) -> Packet {
        Packet {
            src_ip: std::net::Ipv4Addr::from(cube.decode(&self.src_vars) as u32),
            dst_ip: std::net::Ipv4Addr::from(cube.decode(&self.dst_vars) as u32),
            protocol: Protocol::from_code(cube.decode(&self.proto_vars) as u8),
            src_port: cube.decode(&self.sport_vars) as u16,
            dst_port: cube.decode(&self.dport_vars) as u16,
        }
    }

    /// A concrete packet from a region, or `None` when empty.
    pub fn witness(&mut self, region: Ref) -> Option<Packet> {
        let r = self.mgr.and(region, self.valid);
        self.mgr.any_sat(r).map(|c| self.decode_packet(&c))
    }
}
