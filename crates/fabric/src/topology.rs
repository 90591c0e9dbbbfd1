//! The fabric graph: devices connected by links, with routing and the
//! reference platforms used throughout the experiments.

use std::collections::{HashMap, VecDeque};
use std::sync::RwLock;

use df_sim::{Bandwidth, SimDuration};

use crate::device::{DeviceId, DeviceKind, DeviceProfile};
use crate::link::{LinkId, LinkSpec, LinkTech};

/// Metadata for one device in a topology.
#[derive(Debug, Clone)]
pub struct DeviceMeta {
    /// The device id.
    pub id: DeviceId,
    /// Dotted name, e.g. `"compute0.cpu"` or `"storage.nic"`.
    pub name: String,
    /// Performance profile (kind + rates).
    pub profile: DeviceProfile,
    /// Which host this device belongs to in a multi-host topology
    /// ([`Topology::cluster`]); `None` for shared infrastructure (the
    /// switch) and for single-host platforms.
    pub host: Option<u32>,
}

/// An ordered path between two devices.
#[derive(Debug, Clone, PartialEq)]
pub struct Route {
    /// Links traversed, in order from source to destination.
    pub links: Vec<LinkId>,
    /// Devices visited, including both endpoints.
    pub devices: Vec<DeviceId>,
}

impl Route {
    /// The empty route (source == destination).
    pub fn local(device: DeviceId) -> Route {
        Route {
            links: Vec::new(),
            devices: vec![device],
        }
    }

    /// Whether source and destination are the same device.
    pub fn is_local(&self) -> bool {
        self.links.is_empty()
    }
}

/// Memoized shortest routes. BFS runs once per `(from, to)` pair per
/// topology shape; mutations clear the cache. The lock is uncontended in
/// practice (compile-time lookups), and a poisoned lock simply falls back
/// to the surviving map — cached routes are immutable facts.
#[derive(Debug, Default)]
struct RouteCache {
    routes: RwLock<HashMap<(DeviceId, DeviceId), Option<Route>>>,
}

impl RouteCache {
    fn get(&self, key: (DeviceId, DeviceId)) -> Option<Option<Route>> {
        let guard = match self.routes.read() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        guard.get(&key).cloned()
    }

    fn put(&self, key: (DeviceId, DeviceId), route: Option<Route>) {
        let mut guard = match self.routes.write() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        guard.insert(key, route);
    }

    fn clear(&self) {
        let mut guard = match self.routes.write() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        guard.clear();
    }
}

impl Clone for RouteCache {
    fn clone(&self) -> Self {
        let guard = match self.routes.read() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        RouteCache {
            routes: RwLock::new(guard.clone()),
        }
    }
}

/// A graph of devices and links modelling one hardware platform.
#[derive(Debug, Clone, Default)]
pub struct Topology {
    devices: Vec<DeviceMeta>,
    links: Vec<LinkSpec>,
    by_name: HashMap<String, DeviceId>,
    adjacency: HashMap<DeviceId, Vec<(LinkId, DeviceId)>>,
    route_cache: RouteCache,
}

impl Topology {
    /// An empty topology.
    pub fn new() -> Self {
        Topology::default()
    }

    /// Add a device with the reference profile for its kind.
    pub fn add_device(&mut self, name: impl Into<String>, kind: DeviceKind) -> DeviceId {
        self.add_device_with_profile(name, DeviceProfile::reference(kind))
    }

    /// Add a device with an explicit profile.
    pub fn add_device_with_profile(
        &mut self,
        name: impl Into<String>,
        profile: DeviceProfile,
    ) -> DeviceId {
        let name = name.into();
        assert!(
            !self.by_name.contains_key(&name),
            "duplicate device name '{name}'"
        );
        let id = DeviceId(self.devices.len() as u32);
        self.by_name.insert(name.clone(), id);
        self.devices.push(DeviceMeta {
            id,
            name,
            profile,
            host: None,
        });
        self.adjacency.entry(id).or_default();
        self.route_cache.clear();
        id
    }

    /// Add a device that belongs to host `host` of a multi-host cluster.
    pub fn add_host_device(
        &mut self,
        host: u32,
        name: impl Into<String>,
        kind: DeviceKind,
    ) -> DeviceId {
        let id = self.add_device(name, kind);
        self.devices[id.0 as usize].host = Some(host);
        id
    }

    /// Connect two devices with a link of the given technology.
    pub fn add_link(&mut self, tech: LinkTech, a: DeviceId, b: DeviceId) -> LinkId {
        assert!(a != b, "self-links are not allowed");
        assert!((a.0 as usize) < self.devices.len(), "unknown device {a}");
        assert!((b.0 as usize) < self.devices.len(), "unknown device {b}");
        let id = LinkId(self.links.len() as u32);
        self.links.push(LinkSpec { id, tech, a, b });
        self.adjacency.entry(a).or_default().push((id, b));
        self.adjacency.entry(b).or_default().push((id, a));
        self.route_cache.clear();
        id
    }

    /// All devices.
    pub fn devices(&self) -> &[DeviceMeta] {
        &self.devices
    }

    /// All links.
    pub fn links(&self) -> &[LinkSpec] {
        &self.links
    }

    /// Device metadata by id.
    pub fn device(&self, id: DeviceId) -> &DeviceMeta {
        &self.devices[id.0 as usize]
    }

    /// Device id by dotted name.
    pub fn device_by_name(&self, name: &str) -> Option<DeviceId> {
        self.by_name.get(name).copied()
    }

    /// Device id by dotted name, panicking with a useful message if absent.
    /// For experiment code where the platform shape is known.
    pub fn expect_device(&self, name: &str) -> DeviceId {
        self.device_by_name(name)
            .unwrap_or_else(|| panic!("no device named '{name}' in topology"))
    }

    /// Link spec by id.
    pub fn link(&self, id: LinkId) -> &LinkSpec {
        &self.links[id.0 as usize]
    }

    /// Shortest route (by hop count) between two devices, if connected.
    /// Memoized: the BFS runs once per `(from, to)` pair, then the cached
    /// route is returned until the topology is mutated.
    pub fn route(&self, from: DeviceId, to: DeviceId) -> Option<Route> {
        if let Some(cached) = self.route_cache.get((from, to)) {
            return cached;
        }
        let route = self.compute_route(from, to);
        self.route_cache.put((from, to), route.clone());
        route
    }

    /// The uncached BFS behind [`Topology::route`].
    fn compute_route(&self, from: DeviceId, to: DeviceId) -> Option<Route> {
        if from == to {
            return Some(Route::local(from));
        }
        let mut prev: HashMap<DeviceId, (LinkId, DeviceId)> = HashMap::new();
        let mut queue = VecDeque::from([from]);
        while let Some(cur) = queue.pop_front() {
            if cur == to {
                // Reconstruct.
                let mut links = Vec::new();
                let mut devices = vec![to];
                let mut walk = to;
                while walk != from {
                    let (l, p) = prev[&walk];
                    links.push(l);
                    devices.push(p);
                    walk = p;
                }
                links.reverse();
                devices.reverse();
                return Some(Route { links, devices });
            }
            for &(link, next) in self.adjacency.get(&cur).into_iter().flatten() {
                if next != from && !prev.contains_key(&next) {
                    prev.insert(next, (link, cur));
                    queue.push_back(next);
                }
            }
        }
        None
    }

    /// The bottleneck (minimum) bandwidth along a route; `None` for local
    /// routes (no link is crossed).
    pub fn route_bandwidth(&self, route: &Route) -> Option<Bandwidth> {
        route
            .links
            .iter()
            .map(|&l| self.link(l).tech.bandwidth())
            .reduce(Bandwidth::min)
    }

    /// Sum of per-link latencies along a route.
    pub fn route_latency(&self, route: &Route) -> SimDuration {
        route
            .links
            .iter()
            .map(|&l| self.link(l).tech.latency())
            .fold(SimDuration::ZERO, |acc, l| acc + l)
    }

    // -------------------------------------------------------------- hosts

    /// Which host a device belongs to (`None` for shared infrastructure).
    pub fn host_of(&self, id: DeviceId) -> Option<u32> {
        self.device(id).host
    }

    /// Number of hosts in the topology (max host tag + 1; 0 when untagged).
    pub fn host_count(&self) -> usize {
        self.devices
            .iter()
            .filter_map(|d| d.host)
            .max()
            .map_or(0, |h| h as usize + 1)
    }

    // ------------------------------------------------------------ builders

    /// Figure 1's platform: a conventional von Neumann server. Data path
    /// `ssd → cpu → memctl` with a plain NIC on the side.
    pub fn conventional_server() -> Topology {
        let mut t = Topology::new();
        let ssd = t.add_device("host.ssd", DeviceKind::PlainStorage);
        let cpu = t.add_device("host.cpu", DeviceKind::Cpu { cores: 8 });
        let mem = t.add_device("host.mem", DeviceKind::MemoryController);
        let nic = t.add_device("host.nic", DeviceKind::PlainNic);
        t.add_link(LinkTech::Pcie { generation: 4 }, ssd, cpu);
        t.add_link(LinkTech::Ddr { channels: 4 }, mem, cpu);
        t.add_link(LinkTech::Pcie { generation: 4 }, nic, cpu);
        t
    }

    /// The paper's disaggregated cloud platform (Figures 2–4, 6): a storage
    /// node and `compute_nodes` compute nodes joined by a switch.
    ///
    /// Device names: `storage.ssd`, `storage.nic`, `switch`,
    /// `compute{i}.nic`, `compute{i}.cpu`, `compute{i}.mem`.
    pub fn disaggregated(config: &DisaggregatedConfig) -> Topology {
        let mut t = Topology::new();
        let ssd = t.add_device(
            "storage.ssd",
            if config.smart_storage {
                DeviceKind::SmartStorage
            } else {
                DeviceKind::PlainStorage
            },
        );
        let snic = t.add_device(
            "storage.nic",
            if config.smart_nics {
                DeviceKind::SmartNic
            } else {
                DeviceKind::PlainNic
            },
        );
        let switch = t.add_device("switch", DeviceKind::Switch);
        t.add_link(
            LinkTech::Pcie {
                generation: config.pcie_generation,
            },
            ssd,
            snic,
        );
        t.add_link(config.network, snic, switch);
        for i in 0..config.compute_nodes {
            let nic = t.add_device(
                format!("compute{i}.nic"),
                if config.smart_nics {
                    DeviceKind::SmartNic
                } else {
                    DeviceKind::PlainNic
                },
            );
            let cpu = t.add_device(
                format!("compute{i}.cpu"),
                DeviceKind::Cpu {
                    cores: config.cores_per_node,
                },
            );
            let mem = t.add_device(
                format!("compute{i}.mem"),
                if config.near_memory_accel {
                    DeviceKind::NearMemAccel
                } else {
                    DeviceKind::MemoryController
                },
            );
            t.add_link(config.network, switch, nic);
            t.add_link(
                LinkTech::Pcie {
                    generation: config.pcie_generation,
                },
                nic,
                cpu,
            );
            t.add_link(LinkTech::Ddr { channels: 4 }, cpu, mem);
        }
        t
    }

    /// An N-host scale-out cluster: every host owns a full data path
    /// (storage, NIC, CPU, memory) and all hosts meet at one switch —
    /// the substrate for Exchange shuffles (§4.4).
    ///
    /// Device names: `switch`, `host{i}.ssd`, `host{i}.nic`,
    /// `host{i}.cpu`, `host{i}.mem`. Per-host links: `ssd —pcie— cpu`,
    /// `cpu —ddr— mem`, `cpu —pcie— nic`, `nic —network— switch`; so an
    /// exchange between hosts i and j travels
    /// `cpu → nic → switch → nic → cpu`, with the NICs able to run
    /// partition / pre-aggregate kernels in-path when `smart_nics` is set.
    /// Every `host{i}.*` device carries [`DeviceMeta::host`]` == Some(i)`.
    pub fn cluster(hosts: u32, config: &ClusterConfig) -> Topology {
        assert!(hosts > 0, "a cluster needs at least one host");
        let mut t = Topology::new();
        let switch = t.add_device("switch", DeviceKind::Switch);
        for i in 0..hosts {
            let ssd = t.add_host_device(
                i,
                format!("host{i}.ssd"),
                if config.smart_storage {
                    DeviceKind::SmartStorage
                } else {
                    DeviceKind::PlainStorage
                },
            );
            let nic = t.add_host_device(
                i,
                format!("host{i}.nic"),
                if config.smart_nics {
                    DeviceKind::SmartNic
                } else {
                    DeviceKind::PlainNic
                },
            );
            let cpu = t.add_host_device(
                i,
                format!("host{i}.cpu"),
                DeviceKind::Cpu {
                    cores: config.cores_per_host,
                },
            );
            let mem = t.add_host_device(
                i,
                format!("host{i}.mem"),
                if config.near_memory_accel {
                    DeviceKind::NearMemAccel
                } else {
                    DeviceKind::MemoryController
                },
            );
            let pcie = LinkTech::Pcie {
                generation: config.pcie_generation,
            };
            t.add_link(pcie, ssd, cpu);
            t.add_link(LinkTech::Ddr { channels: 4 }, cpu, mem);
            t.add_link(pcie, cpu, nic);
            t.add_link(config.network, nic, switch);
        }
        t
    }

    /// §6.4's rack-scale platform: compute sockets and disaggregated memory
    /// devices federated over a CXL fabric switch, every hop coherent.
    ///
    /// Device names: `cxl-switch`, `socket{i}.cpu`, `socket{i}.mem` (local),
    /// `pool{j}.mem` (+ near-memory accelerator) for the memory pool.
    pub fn cxl_rack(sockets: u32, memory_pools: u32, generation: u8) -> Topology {
        let mut t = Topology::new();
        let switch = t.add_device("cxl-switch", DeviceKind::Switch);
        for i in 0..sockets {
            let cpu = t.add_device(format!("socket{i}.cpu"), DeviceKind::Cpu { cores: 16 });
            let mem = t.add_device(format!("socket{i}.mem"), DeviceKind::MemoryController);
            t.add_link(LinkTech::Ddr { channels: 4 }, cpu, mem);
            t.add_link(LinkTech::Cxl { generation }, cpu, switch);
        }
        for j in 0..memory_pools {
            let mem = t.add_device(format!("pool{j}.mem"), DeviceKind::NearMemAccel);
            t.add_link(LinkTech::Cxl { generation }, mem, switch);
        }
        t
    }
}

/// Configuration for [`Topology::disaggregated`].
#[derive(Debug, Clone)]
pub struct DisaggregatedConfig {
    /// Number of compute nodes.
    pub compute_nodes: u32,
    /// CPU cores per compute node.
    pub cores_per_node: u32,
    /// Whether the storage controller is computational.
    pub smart_storage: bool,
    /// Whether NICs are smart (DPU-class).
    pub smart_nics: bool,
    /// Whether compute-node memory controllers carry a near-memory
    /// accelerator.
    pub near_memory_accel: bool,
    /// Network technology between NICs and the switch.
    pub network: LinkTech,
    /// PCIe generation for intra-node links.
    pub pcie_generation: u8,
}

impl Default for DisaggregatedConfig {
    fn default() -> Self {
        DisaggregatedConfig {
            compute_nodes: 1,
            cores_per_node: 8,
            smart_storage: true,
            smart_nics: true,
            near_memory_accel: true,
            network: LinkTech::Rdma { gbits: 100 },
            pcie_generation: 5,
        }
    }
}

/// Configuration for [`Topology::cluster`].
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// CPU cores per host.
    pub cores_per_host: u32,
    /// Whether per-host storage controllers are computational.
    pub smart_storage: bool,
    /// Whether NICs are smart (DPU-class) — enables in-path partition /
    /// pre-aggregation on exchange routes.
    pub smart_nics: bool,
    /// Whether host memory controllers carry a near-memory accelerator.
    pub near_memory_accel: bool,
    /// Network technology between host NICs and the switch.
    pub network: LinkTech,
    /// PCIe generation for intra-host links.
    pub pcie_generation: u8,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            cores_per_host: 8,
            smart_storage: true,
            smart_nics: true,
            near_memory_accel: true,
            network: LinkTech::Rdma { gbits: 100 },
            pcie_generation: 5,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::OpClass;

    #[test]
    fn conventional_server_routes() {
        let t = Topology::conventional_server();
        let ssd = t.expect_device("host.ssd");
        let mem = t.expect_device("host.mem");
        let route = t.route(ssd, mem).unwrap();
        // ssd -> cpu -> mem: two links.
        assert_eq!(route.links.len(), 2);
        assert_eq!(route.devices.len(), 3);
    }

    #[test]
    fn local_route_is_empty() {
        let t = Topology::conventional_server();
        let cpu = t.expect_device("host.cpu");
        let r = t.route(cpu, cpu).unwrap();
        assert!(r.is_local());
        assert!(t.route_bandwidth(&r).is_none());
        assert_eq!(t.route_latency(&r), SimDuration::ZERO);
    }

    #[test]
    fn disconnected_devices_have_no_route() {
        let mut t = Topology::new();
        let a = t.add_device("a", DeviceKind::PlainNic);
        let b = t.add_device("b", DeviceKind::PlainNic);
        assert!(t.route(a, b).is_none());
    }

    #[test]
    fn disaggregated_full_path() {
        let t = Topology::disaggregated(&DisaggregatedConfig::default());
        let ssd = t.expect_device("storage.ssd");
        let mem = t.expect_device("compute0.mem");
        let route = t.route(ssd, mem).unwrap();
        // ssd -> storage.nic -> switch -> compute0.nic -> cpu -> mem.
        assert_eq!(route.links.len(), 5);
        // Bottleneck is the 100 Gb RDMA network (12.5 GB/s).
        let bw = t.route_bandwidth(&route).unwrap();
        assert!((bw.as_gbytes_per_sec() - 12.5).abs() < 1e-9);
    }

    #[test]
    fn route_is_shortest() {
        let t = Topology::disaggregated(&DisaggregatedConfig {
            compute_nodes: 3,
            ..DisaggregatedConfig::default()
        });
        let a = t.expect_device("compute0.nic");
        let b = t.expect_device("compute2.nic");
        let route = t.route(a, b).unwrap();
        assert_eq!(route.links.len(), 2); // via switch only
    }

    #[test]
    fn smart_flags_change_device_kinds() {
        let dumb = Topology::disaggregated(&DisaggregatedConfig {
            smart_storage: false,
            smart_nics: false,
            near_memory_accel: false,
            ..DisaggregatedConfig::default()
        });
        let ssd = dumb.expect_device("storage.ssd");
        assert!(!dumb.device(ssd).profile.supports(OpClass::Filter));
        let smart = Topology::disaggregated(&DisaggregatedConfig::default());
        let ssd = smart.expect_device("storage.ssd");
        assert!(smart.device(ssd).profile.supports(OpClass::Filter));
    }

    #[test]
    fn cxl_rack_cross_socket_memory_access() {
        let t = Topology::cxl_rack(2, 1, 5);
        let cpu = t.expect_device("socket0.cpu");
        let pool = t.expect_device("pool0.mem");
        let route = t.route(cpu, pool).unwrap();
        assert_eq!(route.links.len(), 2); // cpu -> cxl-switch -> pool
        for l in &route.links {
            assert!(t.link(*l).tech.coherent());
        }
    }

    #[test]
    #[should_panic(expected = "duplicate device name")]
    fn duplicate_names_rejected() {
        let mut t = Topology::new();
        t.add_device("x", DeviceKind::PlainNic);
        t.add_device("x", DeviceKind::PlainNic);
    }

    #[test]
    fn route_cache_returns_identical_routes() {
        let t = Topology::disaggregated(&DisaggregatedConfig {
            compute_nodes: 2,
            ..DisaggregatedConfig::default()
        });
        let ssd = t.expect_device("storage.ssd");
        let mem = t.expect_device("compute1.mem");
        let first = t.route(ssd, mem).unwrap();
        let second = t.route(ssd, mem).unwrap();
        assert_eq!(first, second);
        assert_eq!(first.links.len(), 5);
        // Local and disconnected results are cached correctly too.
        assert!(t.route(ssd, ssd).unwrap().is_local());
        assert!(t.route(ssd, ssd).unwrap().is_local());
    }

    #[test]
    fn route_cache_invalidated_by_mutation() {
        let mut t = Topology::new();
        let a = t.add_device("a", DeviceKind::PlainNic);
        let b = t.add_device("b", DeviceKind::PlainNic);
        assert!(t.route(a, b).is_none());
        t.add_link(LinkTech::Rdma { gbits: 100 }, a, b);
        let r = t.route(a, b).expect("link added, route must appear");
        assert_eq!(r.links.len(), 1);
    }

    #[test]
    fn cluster_shape_and_host_tags() {
        let t = Topology::cluster(4, &ClusterConfig::default());
        assert_eq!(t.host_count(), 4);
        // 1 switch + 4 devices per host.
        assert_eq!(t.devices().len(), 1 + 4 * 4);
        assert_eq!(t.host_of(t.expect_device("switch")), None);
        for i in 0..4u32 {
            let on_host = t.devices().iter().filter(|d| d.host == Some(i));
            assert_eq!(on_host.count(), 4);
            for suffix in ["ssd", "nic", "cpu", "mem"] {
                let dev = t.expect_device(&format!("host{i}.{suffix}"));
                assert_eq!(t.host_of(dev), Some(i));
            }
        }
        // Smart flags take effect per host.
        let ssd = t.expect_device("host2.ssd");
        assert!(t.device(ssd).profile.supports(OpClass::Filter));
    }

    #[test]
    fn cluster_cross_host_route_goes_via_switch() {
        let t = Topology::cluster(8, &ClusterConfig::default());
        let (cpu1, cpu6) = (t.expect_device("host1.cpu"), t.expect_device("host6.cpu"));
        let route = t.route(cpu1, cpu6).unwrap();
        // cpu -> nic -> switch -> nic -> cpu.
        assert_eq!(route.links.len(), 4);
        let switch = t.expect_device("switch");
        assert!(route.devices.contains(&switch));
        // Same-host "route" is local.
        let cpu3 = t.expect_device("host3.cpu");
        assert!(t.route(cpu3, cpu3).unwrap().is_local());
        // The bottleneck is the configured network.
        let bw = t.route_bandwidth(&route).unwrap();
        assert!((bw.as_gbytes_per_sec() - 12.5).abs() < 1e-9);
    }

    #[test]
    fn cluster_scan_path_stays_on_host() {
        let t = Topology::cluster(2, &ClusterConfig::default());
        let ssd = t.expect_device("host0.ssd");
        let cpu = t.expect_device("host0.cpu");
        let route = t.route(ssd, cpu).unwrap();
        assert_eq!(route.links.len(), 1);
        assert!(
            route.devices.iter().all(|&d| t.host_of(d) == Some(0)),
            "scan path left host 0"
        );
    }
}
