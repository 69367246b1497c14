//! Topology model and builder.

use std::collections::BTreeMap;

use clarify_netconfig::Config;
use clarify_nettypes::{BgpRoute, Prefix};

use crate::error::SimError;

/// The business relationship a session's *neighbor* has to this router,
/// in Gao–Rexford terms. Valley-free analysis (`clarify-lint`'s L008
/// transit-leak check) derives its policy obligations from these roles:
/// routes learned from a [`SessionRole::Provider`] or [`SessionRole::Peer`]
/// must never be re-exported towards another provider or peer.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SessionRole {
    /// Same organization (iBGP or a trusted confederation edge); routes
    /// flow freely and taint propagates across it.
    #[default]
    Internal,
    /// The neighbor is our customer: we sell it transit.
    Customer,
    /// The neighbor is a settlement-free peer.
    Peer,
    /// The neighbor is our provider: it sells us transit.
    Provider,
}

impl SessionRole {
    /// The keyword used in topology files (`role <keyword>`).
    pub fn keyword(&self) -> &'static str {
        match self {
            SessionRole::Internal => "internal",
            SessionRole::Customer => "customer",
            SessionRole::Peer => "peer",
            SessionRole::Provider => "provider",
        }
    }

    /// Parses a topology-file role keyword.
    pub fn parse(word: &str) -> Option<SessionRole> {
        match word {
            "internal" => Some(SessionRole::Internal),
            "customer" => Some(SessionRole::Customer),
            "peer" => Some(SessionRole::Peer),
            "provider" => Some(SessionRole::Provider),
            _ => None,
        }
    }

    /// The role the other end must declare for the pair to be consistent
    /// (provider ↔ customer; peer and internal are symmetric).
    pub fn converse(&self) -> SessionRole {
        match self {
            SessionRole::Internal => SessionRole::Internal,
            SessionRole::Customer => SessionRole::Provider,
            SessionRole::Peer => SessionRole::Peer,
            SessionRole::Provider => SessionRole::Customer,
        }
    }

    /// Whether routes learned over a session with this role are
    /// restricted by valley-free export (provider- or peer-learned).
    pub fn taints(&self) -> bool {
        matches!(self, SessionRole::Provider | SessionRole::Peer)
    }
}

impl std::fmt::Display for SessionRole {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.keyword())
    }
}

/// One BGP session from a router's point of view.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Session {
    /// Name of the neighbor router.
    pub neighbor: String,
    /// Route-map applied to routes received from the neighbor.
    pub import_policy: Option<String>,
    /// Route-map applied to routes advertised to the neighbor.
    pub export_policy: Option<String>,
    /// What the neighbor is to us (defaults to [`SessionRole::Internal`]).
    pub role: SessionRole,
}

/// A router: name, AS number, configuration, originations, sessions.
#[derive(Clone, Debug, Default)]
pub struct Router {
    /// Router name (unique in the network).
    pub name: String,
    /// Autonomous system number.
    pub asn: u32,
    /// The router's configuration namespace (route-maps and lists).
    pub config: Config,
    /// Locally originated prefixes.
    pub originated: Vec<Prefix>,
    /// Sessions, keyed implicitly by neighbor name.
    pub sessions: Vec<Session>,
}

impl Router {
    /// The session facing `neighbor`, if any.
    pub fn session(&self, neighbor: &str) -> Option<&Session> {
        self.sessions.iter().find(|s| s.neighbor == neighbor)
    }
}

/// One entry of a router's routing information base.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RibEntry {
    /// The best route for this prefix, after import processing.
    pub route: BgpRoute,
    /// Which neighbor it was learned from (`None` = locally originated).
    pub learned_from: Option<String>,
}

/// A built network, ready to converge. See [`NetworkBuilder`].
#[derive(Clone, Debug, Default)]
pub struct Network {
    pub(crate) routers: BTreeMap<String, Router>,
    pub(crate) ribs: BTreeMap<String, BTreeMap<Prefix, RibEntry>>,
    pub(crate) converged: bool,
}

impl Network {
    /// The routers, by name.
    pub fn routers(&self) -> impl Iterator<Item = &Router> {
        self.routers.values()
    }

    /// One router by name.
    pub fn router(&self, name: &str) -> Option<&Router> {
        self.routers.get(name)
    }

    /// Mutable access to a router's configuration (invalidates any prior
    /// convergence; call [`Network::converge`] again afterwards).
    pub fn router_config_mut(&mut self, name: &str) -> Option<&mut Config> {
        self.converged = false;
        self.routers.get_mut(name).map(|r| &mut r.config)
    }

    /// The RIB of a router (empty until [`Network::converge`] has run).
    pub fn rib(&self, router: &str) -> Option<&BTreeMap<Prefix, RibEntry>> {
        self.ribs.get(router)
    }

    /// The best route a router holds for a prefix.
    pub fn best_route(&self, router: &str, prefix: &Prefix) -> Option<&RibEntry> {
        self.ribs.get(router)?.get(prefix)
    }

    /// Whether `router` has any route for `prefix`.
    pub fn can_reach(&self, router: &str, prefix: &Prefix) -> bool {
        self.best_route(router, prefix).is_some()
    }

    /// The neighbor a router forwards towards for a prefix (`None` when
    /// unreachable or locally originated).
    pub fn next_hop_router(&self, router: &str, prefix: &Prefix) -> Option<&str> {
        self.best_route(router, prefix)?.learned_from.as_deref()
    }
}

/// Fluent builder for [`Network`].
#[derive(Debug, Default)]
pub struct NetworkBuilder {
    routers: Vec<Router>,
}

/// Builder handle for one router (returned by [`NetworkBuilder::router`]).
pub struct RouterBuilder<'a> {
    router: &'a mut Router,
}

impl RouterBuilder<'_> {
    /// Adds a locally originated prefix.
    pub fn originate(&mut self, prefix: Prefix) -> &mut Self {
        self.router.originated.push(prefix);
        self
    }

    /// Installs the router's configuration namespace.
    pub fn config(&mut self, config: Config) -> &mut Self {
        self.router.config = config;
        self
    }

    /// Adds a session towards `neighbor` with optional import/export
    /// route-maps (named in this router's configuration).
    pub fn session(
        &mut self,
        neighbor: &str,
        import_policy: Option<&str>,
        export_policy: Option<&str>,
    ) -> &mut Self {
        self.session_with_role(
            neighbor,
            import_policy,
            export_policy,
            SessionRole::Internal,
        )
    }

    /// Like [`RouterBuilder::session`] but with an explicit neighbor role.
    pub fn session_with_role(
        &mut self,
        neighbor: &str,
        import_policy: Option<&str>,
        export_policy: Option<&str>,
        role: SessionRole,
    ) -> &mut Self {
        self.router.sessions.push(Session {
            neighbor: neighbor.to_string(),
            import_policy: import_policy.map(str::to_string),
            export_policy: export_policy.map(str::to_string),
            role,
        });
        self
    }
}

impl NetworkBuilder {
    /// An empty builder.
    pub fn new() -> NetworkBuilder {
        NetworkBuilder::default()
    }

    /// Adds (or revisits) a router and returns its builder handle.
    pub fn router(&mut self, name: &str, asn: u32) -> RouterBuilder<'_> {
        if let Some(pos) = self.routers.iter().position(|r| r.name == name) {
            return RouterBuilder {
                router: &mut self.routers[pos],
            };
        }
        self.routers.push(Router {
            name: name.to_string(),
            asn,
            ..Router::default()
        });
        let last = self.routers.len() - 1;
        RouterBuilder {
            router: &mut self.routers[last],
        }
    }

    /// Adds a policy-free bidirectional session between two routers.
    ///
    /// Fails with [`SimError::UnknownRouter`] if either endpoint has not
    /// been declared with [`NetworkBuilder::router`].
    pub fn link(&mut self, a: &str, b: &str) -> Result<&mut Self, SimError> {
        self.session_pair(a, b, None, None, None, None)
    }

    /// Adds a bidirectional session with per-direction policies:
    /// `a_import`/`a_export` are applied on router `a`, and symmetrically.
    ///
    /// Both routers must already have been declared with
    /// [`NetworkBuilder::router`]; an undeclared endpoint fails with
    /// [`SimError::UnknownRouter`] — a silent no-op would surface much
    /// later as a mysteriously missing adjacency. Neither side is
    /// modified on failure.
    pub fn session_pair(
        &mut self,
        a: &str,
        b: &str,
        a_import: Option<&str>,
        a_export: Option<&str>,
        b_import: Option<&str>,
        b_export: Option<&str>,
    ) -> Result<&mut Self, SimError> {
        self.session_pair_with_roles(
            a,
            b,
            a_import,
            a_export,
            b_import,
            b_export,
            SessionRole::Internal,
        )
    }

    /// Like [`NetworkBuilder::session_pair`] but declaring what `b` is to
    /// `a` (`b_role_to_a`); `a`'s role on `b`'s side is its converse.
    #[allow(clippy::too_many_arguments)]
    pub fn session_pair_with_roles(
        &mut self,
        a: &str,
        b: &str,
        a_import: Option<&str>,
        a_export: Option<&str>,
        b_import: Option<&str>,
        b_export: Option<&str>,
        b_role_to_a: SessionRole,
    ) -> Result<&mut Self, SimError> {
        let ra = self
            .routers
            .iter()
            .position(|r| r.name == a)
            .ok_or_else(|| SimError::UnknownRouter(a.to_string()))?;
        let rb = self
            .routers
            .iter()
            .position(|r| r.name == b)
            .ok_or_else(|| SimError::UnknownRouter(b.to_string()))?;
        self.routers[ra].sessions.push(Session {
            neighbor: b.to_string(),
            import_policy: a_import.map(str::to_string),
            export_policy: a_export.map(str::to_string),
            role: b_role_to_a,
        });
        self.routers[rb].sessions.push(Session {
            neighbor: a.to_string(),
            import_policy: b_import.map(str::to_string),
            export_policy: b_export.map(str::to_string),
            role: b_role_to_a.converse(),
        });
        Ok(self)
    }

    /// Validates and produces the network.
    pub fn build(self) -> Result<Network, SimError> {
        let mut routers: BTreeMap<String, Router> = BTreeMap::new();
        for r in self.routers {
            if routers.contains_key(&r.name) {
                return Err(SimError::DuplicateRouter(r.name));
            }
            routers.insert(r.name.clone(), r);
        }
        // Sessions must reference existing routers and referenced policies
        // must exist in the router's config.
        for r in routers.values() {
            for s in &r.sessions {
                if !routers.contains_key(&s.neighbor) {
                    return Err(SimError::UnknownRouter(s.neighbor.clone()));
                }
                for policy in [&s.import_policy, &s.export_policy].into_iter().flatten() {
                    if r.config.route_map(policy).is_none() {
                        return Err(SimError::Config {
                            router: r.name.clone(),
                            error: clarify_netconfig::ConfigError::NotFound {
                                kind: "route-map",
                                name: policy.clone(),
                            },
                        });
                    }
                }
            }
        }
        Ok(Network {
            routers,
            ribs: BTreeMap::new(),
            converged: false,
        })
    }
}

impl Network {
    /// The chain of routers traffic towards `prefix` traverses starting at
    /// `from`, ending at the router that originates it. `None` when the
    /// prefix is unreachable from `from` or a forwarding loop is detected
    /// (impossible after convergence, but checked defensively).
    pub fn path_to(&self, from: &str, prefix: &Prefix) -> Option<Vec<&str>> {
        let mut path: Vec<&str> = Vec::new();
        let mut cur = self.routers.get(from)?.name.as_str();
        loop {
            if path.contains(&cur) {
                return None; // loop
            }
            path.push(cur);
            match self.best_route(cur, prefix)?.learned_from.as_deref() {
                None => return Some(path),
                Some(next) => cur = self.routers.get(next)?.name.as_str(),
            }
        }
    }
}
