//! Admission control against the flow-model link capacity.
//!
//! Before a query runs, its placed graph is lowered to flow-simulator
//! pipeline specs ([`df_core::pipeline::PipelineGraph::to_flow_specs`]) and
//! each inter-stage hop is charged to the physical links of its route —
//! bytes chained through the stage selectivities, exactly the byte model
//! FlowSim replays. The controller compares that demand against each
//! link's capacity over a fixed scheduling window (`bandwidth × window`):
//!
//! - a query whose demand **alone** exceeds some link's window capacity can
//!   never run without starving everyone else — **rejected**;
//! - a query that fits alone but not alongside the currently admitted set
//!   is **queued** (FIFO) and admitted when capacity releases;
//! - otherwise it is **admitted** and its demand stays committed until
//!   [`AdmissionController::release`].
//!
//! [`AdmissionController::offer_ranked`] adds §7.3's runtime choice among
//! plan variants: when a query's best variant does not fit now, the first
//! alternative that does is admitted instead.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

use df_fabric::flow::PipelineSpec;
use df_fabric::link::LinkId;
use df_fabric::topology::Topology;
use df_sim::SimDuration;

/// Handle for one admitted or queued query's capacity reservation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Ticket(pub u64);

/// Outcome of offering a query to the controller.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// Capacity reserved; run now, `release` when done.
    Admitted(Ticket),
    /// Fits alone but not alongside the admitted set; waits in FIFO order.
    Queued(Ticket),
    /// Can never fit (or the queue is full). The message names the reason.
    Rejected(String),
}

/// Per-link byte demand of one query over the scheduling window.
pub type LinkDemand = BTreeMap<LinkId, u64>;

/// The admission controller: committed per-link bytes plus a bounded FIFO
/// of queries waiting for capacity.
#[derive(Debug)]
pub struct AdmissionController {
    topology: Arc<Topology>,
    window: SimDuration,
    /// Bytes committed per link by currently admitted queries.
    committed: BTreeMap<LinkId, u64>,
    /// Demand behind each live (admitted) ticket.
    admitted: BTreeMap<u64, LinkDemand>,
    queue: VecDeque<(u64, LinkDemand)>,
    max_queue: usize,
    next_ticket: u64,
}

impl AdmissionController {
    /// A controller over `topology` with a 100 ms scheduling window and a
    /// queue of at most 32 waiting queries.
    pub fn new(topology: Arc<Topology>) -> AdmissionController {
        AdmissionController::with_window(topology, SimDuration::from_secs_f64(0.1), 32)
    }

    /// A controller with an explicit capacity window and queue bound.
    pub fn with_window(
        topology: Arc<Topology>,
        window: SimDuration,
        max_queue: usize,
    ) -> AdmissionController {
        AdmissionController {
            topology,
            window,
            committed: BTreeMap::new(),
            admitted: BTreeMap::new(),
            queue: VecDeque::new(),
            max_queue,
            next_ticket: 0,
        }
    }

    /// A link's byte capacity over the scheduling window.
    pub fn link_capacity(&self, link: LinkId) -> u64 {
        let bw = self.topology.link(link).tech.bandwidth().as_bytes_per_sec();
        (bw * self.window.as_secs_f64()) as u64
    }

    /// Per-link byte demand of a query's flow specs: source bytes chained
    /// through each stage's selectivity, charged to every link on the route
    /// between consecutive stages' devices. Returns an error naming the
    /// hop when two placed devices have no route.
    pub fn demand_of(&self, specs: &[PipelineSpec]) -> Result<LinkDemand, String> {
        let mut demand = LinkDemand::new();
        for spec in specs {
            let mut bytes = spec.source_bytes as f64;
            for pair in spec.stages.windows(2) {
                bytes *= pair[0].selectivity;
                let (from, to) = (pair[0].device, pair[1].device);
                let route = self.topology.route(from, to).ok_or_else(|| {
                    format!("pipeline '{}': no route from {from} to {to}", spec.name)
                })?;
                let hop = bytes.round() as u64;
                for link in &route.links {
                    *demand.entry(*link).or_insert(0) += hop;
                }
            }
        }
        Ok(demand)
    }

    /// Offer a query's demand. See the module docs for the three verdicts.
    pub fn offer(&mut self, demand: LinkDemand) -> Verdict {
        for (&link, &bytes) in &demand {
            let cap = self.link_capacity(link);
            if bytes > cap {
                return Verdict::Rejected(format!(
                    "demand {bytes} B exceeds capacity {cap} B on link {} within the {} window",
                    self.topology.link(link).tech.name(),
                    self.window,
                ));
            }
        }
        let ticket = Ticket(self.next_ticket);
        self.next_ticket += 1;
        // FIFO: nobody overtakes a queued query.
        if self.queue.is_empty() && self.fits(&demand) {
            self.commit(ticket.0, demand);
            Verdict::Admitted(ticket)
        } else if self.queue.len() >= self.max_queue {
            Verdict::Rejected(format!(
                "admission queue full ({} waiting)",
                self.queue.len()
            ))
        } else {
            self.queue.push_back((ticket.0, demand));
            Verdict::Queued(ticket)
        }
    }

    /// Offer a query's plan variants as `(index, flow specs)`, best first;
    /// returns the admitted variant's index and its verdict. Variants are
    /// priced lazily, the next only when none before it fits now, so an
    /// uncontended query prices (and its caller compiles) just the best.
    /// The first that fits now is admitted; if none does, the best gets
    /// [`offer`]'s verdict (queued FIFO or rejected). No variant overtakes a
    /// waiting ticket; an alternative that cannot be priced is skipped.
    /// Errs only when the best cannot be priced.
    ///
    /// [`offer`]: AdmissionController::offer
    pub fn offer_ranked(
        &mut self,
        ranked: impl IntoIterator<Item = (usize, Vec<PipelineSpec>)>,
    ) -> Result<(usize, Verdict), String> {
        let mut ranked = ranked.into_iter();
        let (best, specs) = ranked.next().ok_or("no plan variant to admit")?;
        let best_demand = self.demand_of(&specs)?;
        if self.queue.is_empty() && !self.fits(&best_demand) {
            for (variant, specs) in ranked {
                match self.demand_of(&specs) {
                    Ok(demand) if self.fits(&demand) => return Ok((variant, self.offer(demand))),
                    _ => {}
                }
            }
        }
        Ok((best, self.offer(best_demand)))
    }

    /// Release an admitted query's reservation (or drop it from the queue),
    /// then admit as many queued queries as now fit, in FIFO order.
    /// Returns the tickets admitted by this release.
    pub fn release(&mut self, ticket: Ticket) -> Vec<Ticket> {
        if let Some(demand) = self.admitted.remove(&ticket.0) {
            for (link, bytes) in demand {
                let slot = self.committed.get_mut(&link).expect("committed link");
                *slot -= bytes;
            }
        } else {
            self.queue.retain(|(t, _)| *t != ticket.0);
        }
        let mut admitted = Vec::new();
        while let Some((t, demand)) = self.queue.front() {
            if !self.fits(demand) {
                break;
            }
            let (t, demand) = (*t, demand.clone());
            self.queue.pop_front();
            self.commit(t, demand);
            admitted.push(Ticket(t));
        }
        admitted
    }

    /// Whether a ticket currently holds committed capacity.
    pub fn is_admitted(&self, ticket: Ticket) -> bool {
        self.admitted.contains_key(&ticket.0)
    }

    /// Number of queries currently holding capacity.
    pub fn admitted_count(&self) -> usize {
        self.admitted.len()
    }

    /// Number of queries waiting in the queue.
    pub fn queued_count(&self) -> usize {
        self.queue.len()
    }

    fn fits(&self, demand: &LinkDemand) -> bool {
        demand.iter().all(|(&link, &bytes)| {
            self.committed.get(&link).copied().unwrap_or(0) + bytes <= self.link_capacity(link)
        })
    }

    fn commit(&mut self, ticket: u64, demand: LinkDemand) {
        for (&link, &bytes) in &demand {
            *self.committed.entry(link).or_insert(0) += bytes;
        }
        self.admitted.insert(ticket, demand);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use df_fabric::device::{DeviceId, OpClass};
    use df_fabric::flow::StageSpec;

    fn controller() -> (AdmissionController, Vec<DeviceId>) {
        let topo = Topology::conventional_server();
        let devices: Vec<_> = topo.devices().iter().map(|d| d.id).collect();
        (
            AdmissionController::with_window(Arc::new(topo), SimDuration::from_secs_f64(0.001), 2),
            devices,
        )
    }

    fn spec(devices: &[DeviceId], bytes: u64) -> PipelineSpec {
        // A cross-device hop (ssd → cpu) so the demand lands on a real link.
        PipelineSpec::new(
            "q",
            vec![
                StageSpec::new(devices[0], OpClass::Filter, 1.0),
                StageSpec::new(devices[1], OpClass::AggregateFinal, 0.1),
            ],
            bytes,
        )
    }

    #[test]
    fn oversized_query_is_rejected_outright() {
        let (mut ac, devices) = controller();
        let demand = ac.demand_of(&[spec(&devices, u64::MAX / 4)]).unwrap();
        assert!(matches!(ac.offer(demand), Verdict::Rejected(_)));
    }

    #[test]
    fn codec_priced_demand_admits_where_plain_queues() {
        // The same placed plan lowered twice: plain, and with a 0.25-ratio
        // codec pair on its fabric edge. The codec's Compress stage scales
        // the crossing's link bytes, so a query that cannot share the link
        // with a plain copy of itself fits alongside the coded one.
        use df_codec::edge::EdgeEncoding;
        use df_core::logical::AggCall;
        use df_core::ops::AggMode;
        use df_core::physical::{PhysNode, PhysicalPlan};
        use df_core::pipeline::{PipelineGraph, DEFAULT_QUEUE_CAPACITY};
        use df_data::batch::batch_of;
        use df_data::{Column, DataType, Field, Schema};
        use df_fabric::topology::DisaggregatedConfig;

        let topo = Arc::new(Topology::disaggregated(&DisaggregatedConfig::default()));
        let nic = topo.expect_device("compute0.nic");
        let cpu = topo.expect_device("compute0.cpu");
        let batch = batch_of(vec![("v", Column::from_i64((0..20_000i64).collect()))]);
        let out_schema = Schema::new(vec![Field::nullable("n", DataType::Int64)]).into_ref();
        let plan = PhysicalPlan::new(
            PhysNode::Aggregate {
                input: Box::new(PhysNode::Values {
                    schema: batch.schema().clone(),
                    batches: vec![batch],
                    device: Some(nic),
                }),
                group_by: vec![],
                aggs: vec![AggCall::count_star("n")],
                mode: AggMode::Final,
                final_schema: out_schema,
                device: Some(cpu),
            },
            "admission",
        );
        let mut graph = PipelineGraph::compile(&plan, None, Some(&topo), DEFAULT_QUEUE_CAPACITY);
        let plain_specs = graph.to_flow_specs(cpu, "q.plain").unwrap();
        let eid = graph
            .edges
            .iter()
            .position(|e| e.crosses_devices())
            .expect("nic -> cpu fabric edge");
        graph.set_edge_encoding(eid, EdgeEncoding::ColumnarLz, 0.25);
        let codec_specs = graph.to_flow_specs(cpu, "q.codec").unwrap();

        // Size the window so one plain query fills 2/3 of the bottleneck.
        let probe = AdmissionController::new(topo.clone());
        let plain = probe.demand_of(&plain_specs).unwrap();
        let codec = probe.demand_of(&codec_specs).unwrap();
        let (&bottleneck, &plain_bytes) =
            plain.iter().max_by_key(|(_, &b)| b).expect("link demand");
        assert!(
            codec[&bottleneck] <= plain_bytes / 2,
            "codec demand {} must be at most half of plain {}",
            codec[&bottleneck],
            plain_bytes
        );
        let bw = topo.link(bottleneck).tech.bandwidth().as_bytes_per_sec();
        let window = SimDuration::from_secs_f64(plain_bytes as f64 * 1.5 / bw);

        // Plain cannot share the link with itself...
        let mut ac = AdmissionController::with_window(topo.clone(), window, 4);
        assert!(matches!(ac.offer(plain.clone()), Verdict::Admitted(_)));
        assert!(matches!(ac.offer(plain.clone()), Verdict::Queued(_)));

        // ...but the codec-priced copy fits alongside it.
        let mut ac = AdmissionController::with_window(topo.clone(), window, 4);
        assert!(matches!(ac.offer(plain.clone()), Verdict::Admitted(_)));
        assert!(matches!(ac.offer(codec.clone()), Verdict::Admitted(_)));
    }

    #[test]
    fn saturation_queues_then_release_admits_fifo() {
        let (mut ac, devices) = controller();
        // Each query takes more than half a link's window capacity, so only
        // one fits at a time.
        let link_cap = ac.link_capacity(LinkId(0));
        let demand = ac.demand_of(&[spec(&devices, link_cap * 3 / 4)]).unwrap();
        assert!(!demand.is_empty(), "cross-device hop must touch links");

        let first = match ac.offer(demand.clone()) {
            Verdict::Admitted(t) => t,
            v => panic!("expected admit, got {v:?}"),
        };
        let second = match ac.offer(demand.clone()) {
            Verdict::Queued(t) => t,
            v => panic!("expected queue, got {v:?}"),
        };
        let third = match ac.offer(demand.clone()) {
            Verdict::Queued(t) => t,
            v => panic!("expected queue, got {v:?}"),
        };
        // Queue bound is 2: the fourth is rejected.
        assert!(matches!(ac.offer(demand.clone()), Verdict::Rejected(_)));

        assert_eq!(ac.release(first), vec![second]);
        assert_eq!(ac.release(second), vec![third]);
        assert_eq!(ac.release(third), vec![]);
        assert_eq!(ac.admitted_count(), 0);
        assert_eq!(ac.queued_count(), 0);
    }

    /// A query's variants as `(rank, specs)`, one spec each of the given
    /// sizes, best first.
    fn ranked(devices: &[DeviceId], sizes: &[u64]) -> Vec<(usize, Vec<PipelineSpec>)> {
        let specs = sizes.iter().map(|&bytes| vec![spec(devices, bytes)]);
        specs.enumerate().collect()
    }

    #[test]
    fn ranked_offer_admits_the_first_alternative_that_fits() {
        let (mut ac, devices) = controller();
        let cap = ac.link_capacity(LinkId(0));
        // Best takes 3/4 of the window, so it fits once; the first
        // alternative is as large, the second small.
        let variants = ranked(&devices, &[cap * 3 / 4, cap * 3 / 4, cap / 8]);

        let mut priced = 0;
        let first = ac
            .offer_ranked(variants.clone().into_iter().inspect(|_| priced += 1))
            .unwrap();
        assert!(matches!(first, (0, Verdict::Admitted(_))), "{first:?}");
        assert_eq!(priced, 1, "an uncontended query prices only its best");

        let second = ac.offer_ranked(variants).unwrap();
        assert!(matches!(second, (2, Verdict::Admitted(_))), "{second:?}");
        assert_eq!(ac.admitted_count(), 2);

        // A best variant that can never fit still falls back to one that
        // fits now; with no such alternative it is rejected as by `offer`.
        let (mut ac, _) = controller();
        let fallback = ac.offer_ranked(ranked(&devices, &[cap * 2, cap / 8]));
        assert!(matches!(fallback, Ok((1, Verdict::Admitted(_)))));
        let hopeless = ac.offer_ranked(ranked(&devices, &[cap * 2, cap * 2]));
        assert!(matches!(hopeless, Ok((0, Verdict::Rejected(_)))));
    }

    #[test]
    fn ranked_offer_queues_the_best_and_never_overtakes_the_queue() {
        let (mut ac, devices) = controller();
        let cap = ac.link_capacity(LinkId(0));
        let first = match ac.offer_ranked(ranked(&devices, &[cap * 3 / 4])) {
            Ok((0, Verdict::Admitted(t))) => t,
            v => panic!("expected admit, got {v:?}"),
        };
        // Nothing fits alongside the first: the best variant is queued.
        let second = match ac.offer_ranked(ranked(&devices, &[cap * 3 / 4, cap * 3 / 4])) {
            Ok((0, Verdict::Queued(t))) => t,
            v => panic!("expected the best variant queued, got {v:?}"),
        };
        // An alternative would fit now, but a ticket is waiting: no
        // overtaking, the best variant queues behind it.
        let third = match ac.offer_ranked(ranked(&devices, &[cap * 3 / 4, cap / 8])) {
            Ok((0, Verdict::Queued(t))) => t,
            v => panic!("expected the best variant queued, got {v:?}"),
        };
        assert_eq!(ac.release(first), vec![second]);
        assert_eq!(ac.release(second), vec![third]);
        assert_eq!(ac.release(third), vec![]);
        assert_eq!(ac.admitted_count(), 0);
    }
}
