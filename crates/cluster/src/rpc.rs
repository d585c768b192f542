//! The in-process RPC fabric.
//!
//! A node (Master or Index Node) is registered either with a mailbox
//! drained by its own actor thread, or **inline**: its handler sits behind
//! a mutex and runs on whichever thread posts the request. Either way it
//! answers through the request's [`ReplyTo`], so callers see one fabric:
//! synchronous request/response through [`Rpc::call`], or a fan-out from
//! one thread through a [`Gather`]. Delivery costs what it costs on the
//! host, plus any wall-clock stall injected per node through
//! [`Rpc::slowdowns`].

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::{Mutex, RwLock};
use propeller_sim::NodeSlowdowns;
use propeller_types::{Error, NodeId, Result};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::messages::{Request, Response};

/// How long a request may stay unanswered, counted from its send.
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);

/// A message in flight: the request plus where its reply goes.
pub(crate) type Envelope = (Request, ReplyTo);

/// The reply half of an [`Envelope`]: the issuing [`Gather`]'s channel and
/// the request's slot in it. Dropped unanswered (the node died with the
/// message queued, or mid-call) it reports exactly that, so the caller
/// fails at once instead of waiting out the timeout.
pub(crate) struct ReplyTo {
    tx: Sender<(usize, Option<Response>)>,
    slot: usize,
    answered: bool,
}

impl ReplyTo {
    pub(crate) fn send(mut self, resp: Response) {
        self.answered = true;
        let _ = self.tx.send((self.slot, Some(resp)));
    }
}

impl Drop for ReplyTo {
    fn drop(&mut self) {
        if !self.answered {
            let _ = self.tx.send((self.slot, None));
        }
    }
}

/// Where a registered node's requests go.
#[derive(Clone)]
enum Endpoint {
    /// Queued for the node's actor thread.
    Mailbox(Sender<Envelope>),
    /// Handled on the delivering thread (see [`Rpc::register_inline`]).
    Inline(Arc<Mutex<dyn FnMut(Request, ReplyTo) + Send>>),
}

impl Endpoint {
    fn deliver(self, envelope: Envelope) {
        match self {
            Endpoint::Mailbox(mailbox) => drop(mailbox.send(envelope)),
            Endpoint::Inline(handler) => (handler.lock())(envelope.0, envelope.1),
        }
    }
}

type Registry = HashMap<NodeId, Endpoint>;

/// Handle to the cluster fabric. Cloning shares the same fabric.
#[derive(Clone)]
pub struct Rpc {
    registry: Arc<RwLock<Registry>>,
    /// Injected per-node delivery delays (tail-latency experiments) and
    /// the rng that samples them.
    slowdowns: Arc<NodeSlowdowns>,
    slow_rng: Arc<Mutex<StdRng>>,
    /// Lazily-started executor for delayed sends: one long-lived thread
    /// sleeps out each injected delay, so the sender keeps running (a
    /// fan-out's other requests leave while the slow node's copy is still
    /// "on the wire") and no send creates a thread.
    delayer: Arc<Mutex<Option<Sender<DelayedSend>>>>,
}

/// One send waiting out its injected delivery delay.
struct DelayedSend {
    deadline: Instant,
    endpoint: Endpoint,
    envelope: Envelope,
}

impl std::fmt::Debug for Rpc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Rpc").field("nodes", &self.registry.read().len()).finish()
    }
}

impl Rpc {
    /// An empty fabric.
    pub fn new() -> Self {
        Rpc {
            registry: Arc::new(RwLock::new(Registry::default())),
            slowdowns: Arc::new(NodeSlowdowns::new()),
            slow_rng: Arc::new(Mutex::new(StdRng::seed_from_u64(0x510))),
            delayer: Arc::new(Mutex::new(None)),
        }
    }

    /// The fabric's injected-slowdown table. Setting a [`Latency`]
    /// distribution for a node stalls every delivery to it (on the wall
    /// clock) until cleared — the knob tail-tolerance tests and benches
    /// turn to make one replica slow.
    ///
    /// [`Latency`]: propeller_sim::Latency
    pub fn slowdowns(&self) -> &NodeSlowdowns {
        &self.slowdowns
    }

    /// Registers a node, returning the receiver its thread should drain.
    pub(crate) fn register(&self, node: NodeId) -> Receiver<Envelope> {
        let (tx, rx) = unbounded();
        self.registry.write().insert(node, Endpoint::Mailbox(tx));
        rx
    }

    /// Registers a node served **inline**: every request runs `handler` on
    /// the thread that delivers it, under a per-node mutex but outside the
    /// registry lock. The handler answers through the [`ReplyTo`] — at
    /// once, or later from another thread (an Index Node's pool job).
    /// `Shutdown` is acknowledged and drops the handler, as an actor's
    /// thread would exit; later requests then fail as a dead node's do.
    pub(crate) fn register_inline(
        &self,
        node: NodeId,
        handler: impl FnMut(Request, ReplyTo) + Send + 'static,
    ) {
        let mut live = Some(handler);
        let endpoint = move |req: Request, reply: ReplyTo| match live.as_mut() {
            Some(_) if matches!(req, Request::Shutdown) => {
                live = None;
                reply.send(Response::Ok);
            }
            Some(handler) => handler(req, reply),
            None => drop(reply),
        };
        self.registry.write().insert(node, Endpoint::Inline(Arc::new(Mutex::new(endpoint))));
    }

    /// Removes a node from the fabric (failure injection in tests).
    pub fn deregister(&self, node: NodeId) {
        self.registry.write().remove(&node);
    }

    /// The one way a request leaves: endpoint lookup, then delivery —
    /// into the mailbox or through the inline handler, at once or via the
    /// delay executor when `node` has an injected slowdown. A request that
    /// cannot be delivered (unknown or dead node) drops its [`ReplyTo`],
    /// which is what tells the caller.
    fn post(&self, node: NodeId, req: Request, reply: ReplyTo) {
        let Some(endpoint) = self.registry.read().get(&node).cloned() else { return };
        let delay = if self.slowdowns.is_empty() {
            None
        } else {
            self.slowdowns.sample(node, &mut *self.slow_rng.lock())
        };
        let envelope = (req, reply);
        match delay {
            None => endpoint.deliver(envelope),
            Some(delay) => {
                let deadline = Instant::now() + delay.to_std();
                drop(self.delayer_tx().send(DelayedSend { deadline, endpoint, envelope }));
            }
        }
    }

    /// The delay-executor input, starting its thread on first use. FIFO
    /// processing is safe: a later-queued send with an earlier deadline
    /// only waits longer — injected delays are never shortened.
    fn delayer_tx(&self) -> Sender<DelayedSend> {
        let mut guard = self.delayer.lock();
        if let Some(tx) = guard.as_ref() {
            return tx.clone();
        }
        let (tx, rx) = unbounded::<DelayedSend>();
        std::thread::spawn(move || {
            while let Ok(send) = rx.recv() {
                let now = Instant::now();
                if send.deadline > now {
                    std::thread::sleep(send.deadline - now);
                }
                send.endpoint.deliver(send.envelope);
            }
        });
        *guard = Some(tx.clone());
        tx
    }

    /// Starts an empty scatter/gather exchange on this fabric.
    pub fn gather(&self) -> Gather {
        self.gather_with_timeout(REPLY_TIMEOUT)
    }

    fn gather_with_timeout(&self, timeout: Duration) -> Gather {
        let (tx, rx) = unbounded();
        Gather { rpc: self.clone(), tx, rx, slots: Vec::new(), oldest: 0, timeout }
    }

    /// Sends `req` to `node` and waits for its response.
    ///
    /// # Errors
    ///
    /// Returns [`Error::NodeUnavailable`] for unknown nodes and nodes
    /// that died mid-call, [`Error::Rpc`] for a node silent for 30 s, plus
    /// any [`Error`] the handler itself reports via [`Response::Err`].
    pub fn call(&self, node: NodeId, req: Request) -> Result<Response> {
        let mut gather = self.gather();
        gather.send(node, req);
        gather.next().expect("one request is outstanding").1
    }

    /// Sends every target's request from the calling thread, then waits
    /// for all the replies: `out[i]` is what `call(targets[i])` would
    /// have returned, but the nodes work in parallel and the timeouts run
    /// concurrently.
    pub fn call_all(&self, targets: Vec<(NodeId, Request)>) -> Vec<Result<Response>> {
        let mut gather = self.gather();
        for (node, req) in targets {
            gather.send(node, req);
        }
        let mut out: Vec<Option<Result<Response>>> =
            (0..gather.slots.len()).map(|_| None).collect();
        for (slot, result) in gather {
            out[slot] = Some(result);
        }
        out.into_iter().map(|r| r.expect("every slot resolves exactly once")).collect()
    }

    /// The registered node ids.
    pub fn nodes(&self) -> Vec<NodeId> {
        let mut v: Vec<NodeId> = self.registry.read().keys().copied().collect();
        v.sort();
        v
    }
}

impl Default for Rpc {
    fn default() -> Self {
        Rpc::new()
    }
}

/// One scatter/gather exchange: requests leave from the calling thread
/// ([`Gather::send`], numbered by **slot** in send order) and every reply
/// lands on one shared channel tagged with its slot, so the caller blocks
/// for *whichever* node answers next ([`Gather::next`]) — no thread per
/// target, and no polling. Every slot resolves exactly once, with
/// [`Rpc::call`]'s semantics: the node's reply (a [`Response::Err`] lifted
/// into `Err`), or
/// [`Error::NodeUnavailable`] for an unknown node or one that died
/// mid-call, or [`Error::Rpc`] after 30 s of silence **from that slot's
/// send** — timeouts run concurrently, however the replies are collected.
pub struct Gather {
    rpc: Rpc,
    tx: Sender<(usize, Option<Response>)>,
    rx: Receiver<(usize, Option<Response>)>,
    /// Per slot: the target, and when the request left (`None` once the
    /// slot resolved).
    slots: Vec<(NodeId, Option<Instant>)>,
    /// Every slot before this one has resolved; sends are in time order,
    /// so the first pending slot from here carries the earliest timeout.
    oldest: usize,
    timeout: Duration,
}

impl Gather {
    /// Sends `req` to `node`, returning its slot.
    pub fn send(&mut self, node: NodeId, req: Request) -> usize {
        let slot = self.slots.len();
        self.slots.push((node, Some(Instant::now())));
        self.rpc.post(node, req, ReplyTo { tx: self.tx.clone(), slot, answered: false });
        slot
    }

    /// The node `slot`'s request went to.
    pub fn node(&self, slot: usize) -> NodeId {
        self.slots[slot].0
    }
}

impl Iterator for Gather {
    type Item = (usize, Result<Response>);

    /// Blocks for the next slot to resolve, in whatever order the nodes
    /// answer. Returns `None` once nothing is outstanding; a later
    /// [`Gather::send`] makes it block again.
    fn next(&mut self) -> Option<(usize, Result<Response>)> {
        loop {
            while matches!(self.slots.get(self.oldest), Some((_, None))) {
                self.oldest += 1;
            }
            let (_, sent) = self.slots.get(self.oldest)?;
            let expiry = sent.expect("the scan above stops at a pending slot") + self.timeout;
            let wait = expiry.saturating_duration_since(Instant::now());
            let (slot, reply) = match self.rx.recv_timeout(wait) {
                Ok((slot, reply)) => (slot, reply.ok_or(Error::NodeUnavailable(self.node(slot)))),
                // `self.tx` keeps the channel connected: this is a timeout.
                Err(_) => {
                    let node = self.node(self.oldest);
                    (self.oldest, Err(Error::Rpc(format!("timeout waiting for {node}"))))
                }
            };
            // A reply to a slot that already timed out is dropped.
            if self.slots[slot].1.take().is_some() {
                return Some((slot, reply.and_then(Response::into_result)));
            }
        }
    }
}

/// Runs a node actor: drains the mailbox, handing each request and its
/// [`ReplyTo`] to the handler — which may answer later from another
/// thread (an Index Node's searches reply from its worker pool) — until a
/// `Shutdown` request arrives, acknowledged before the loop exits.
pub(crate) fn run_actor(rx: Receiver<Envelope>, mut handler: impl FnMut(Request, ReplyTo)) {
    while let Ok((req, reply)) = rx.recv() {
        if matches!(req, Request::Shutdown) {
            reply.send(Response::Ok);
            break;
        }
        handler(req, reply);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The ways a node can sit on the fabric.
    #[derive(Debug, Clone, Copy)]
    enum Serve {
        /// A mailbox drained by an actor thread.
        Actor,
        /// Inline: the handler runs on the posting thread.
        Inline,
        /// Inline, answering from a worker pool — the shape of an Index
        /// Node whose pool job replies after its handler returned.
        InlineDeferred,
    }

    const EVERY_SERVE: [Serve; 3] = [Serve::Actor, Serve::Inline, Serve::InlineDeferred];

    /// Registers `handler` for `id` as `how` says; `Some` actor thread to
    /// join after its `Shutdown`.
    fn serve(
        rpc: &Rpc,
        id: NodeId,
        how: Serve,
        handler: impl FnMut(Request, ReplyTo) + Send + 'static,
    ) -> Option<std::thread::JoinHandle<()>> {
        match how {
            Serve::Actor => {
                let rx = rpc.register(id);
                return Some(std::thread::spawn(move || run_actor(rx, handler)));
            }
            Serve::Inline => rpc.register_inline(id, handler),
            Serve::InlineDeferred => {
                let (pool, handler) = (crate::WorkerPool::new(1), Arc::new(Mutex::new(handler)));
                rpc.register_inline(id, move |req, reply| {
                    let handler = Arc::clone(&handler);
                    pool.submit(move || (handler.lock())(req, reply));
                });
            }
        }
        None
    }

    fn echo_node(rpc: &Rpc, id: NodeId, how: Serve) -> Option<std::thread::JoinHandle<()>> {
        serve(rpc, id, how, |req, reply| {
            reply.send(match req {
                Request::LocateAcgs => Response::Located(vec![]),
                _ => Response::Ok,
            })
        })
    }

    fn echo_actor(rpc: &Rpc, id: NodeId) -> std::thread::JoinHandle<()> {
        echo_node(rpc, id, Serve::Actor).expect("an actor has a thread")
    }

    #[test]
    fn call_round_trip() {
        for how in EVERY_SERVE {
            let rpc = Rpc::new();
            let h = echo_node(&rpc, NodeId::new(1), how);
            let resp = rpc.call(NodeId::new(1), Request::LocateAcgs).unwrap();
            assert!(matches!(resp, Response::Located(_)), "{how:?}");
            rpc.call(NodeId::new(1), Request::Shutdown).unwrap();
            if let Some(h) = h {
                h.join().unwrap();
            }
            let after = rpc.call(NodeId::new(1), Request::LocateAcgs);
            assert!(matches!(after, Err(Error::NodeUnavailable(_))), "{how:?}: {after:?}");
        }
    }

    #[test]
    fn unknown_node_is_an_error() {
        let rpc = Rpc::new();
        let err = rpc.call(NodeId::new(99), Request::LocateAcgs);
        assert!(matches!(err, Err(Error::NodeUnavailable(_))));
    }

    #[test]
    fn concurrent_callers_are_serialized_by_the_actor() {
        let rpc = Rpc::new();
        let h = echo_actor(&rpc, NodeId::new(1));
        std::thread::scope(|s| {
            for _ in 0..8 {
                let rpc = rpc.clone();
                s.spawn(move || {
                    for _ in 0..50 {
                        rpc.call(NodeId::new(1), Request::LocateAcgs).unwrap();
                    }
                });
            }
        });
        rpc.call(NodeId::new(1), Request::Shutdown).unwrap();
        h.join().unwrap();
    }

    #[test]
    fn injected_slowdown_stalls_delivery_but_not_the_sender() {
        use propeller_sim::Latency;
        let rpc = Rpc::new();
        let h = echo_actor(&rpc, NodeId::new(1));
        rpc.slowdowns()
            .set(NodeId::new(1), Latency::constant(propeller_types::Duration::from_millis(80)));
        let started = Instant::now();
        let mut gather = rpc.gather();
        gather.send(NodeId::new(1), Request::LocateAcgs);
        assert!(started.elapsed() < Duration::from_millis(60), "sender must not stall");
        assert!(matches!(gather.next(), Some((0, Ok(Response::Located(_))))));
        assert!(started.elapsed() >= Duration::from_millis(80));
        assert!(gather.next().is_none());
        rpc.slowdowns().clear(NodeId::new(1));
        rpc.call(NodeId::new(1), Request::Shutdown).unwrap();
        h.join().unwrap();
    }

    /// A node answering `LocateAcgs` with its own id, failing `AcgLsns`,
    /// dropping the reply to `TakeSplitWork` unanswered (the caller must see a
    /// dead handler at once) and swallowing everything else (the reply is
    /// kept, so the caller sees silence, not a dead node).
    fn scripted_node(rpc: &Rpc, id: NodeId, how: Serve) -> Option<std::thread::JoinHandle<()>> {
        let mut swallowed = Vec::new();
        serve(rpc, id, how, move |req, reply| match req {
            Request::LocateAcgs => reply.send(Response::Located(vec![(
                propeller_types::AcgId::new(u64::from(id.raw())),
                vec![id],
            )])),
            Request::AcgLsns => reply.send(Response::Err(Error::Shutdown)),
            Request::TakeSplitWork => drop(reply),
            _ => swallowed.push(reply),
        })
    }

    type Actors = Vec<Option<std::thread::JoinHandle<()>>>;

    /// `(fabric, actors)` with nodes 1..=3 scripted and node 9 unknown.
    fn scripted_fabric(how: Serve) -> (Rpc, Actors) {
        let rpc = Rpc::new();
        let actors = (1..=3).map(|n| scripted_node(&rpc, NodeId::new(n), how)).collect();
        (rpc, actors)
    }

    fn stop(rpc: &Rpc, actors: Actors) {
        for (n, actor) in (1..).zip(actors) {
            rpc.call(NodeId::new(n), Request::Shutdown).unwrap();
            if let Some(actor) = actor {
                actor.join().unwrap();
            }
        }
    }

    #[test]
    fn call_all_equals_sequential_calls_slot_by_slot() {
        let targets = || {
            vec![
                (NodeId::new(3), Request::LocateAcgs),
                (NodeId::new(1), Request::AcgLsns),
                (NodeId::new(9), Request::LocateAcgs),
                (NodeId::new(2), Request::LocateAcgs),
                (NodeId::new(2), Request::TakeSplitWork),
                (NodeId::new(1), Request::LocateAcgs),
            ]
        };
        let show = |r: &Result<Response>| format!("{r:?}");
        for how in EVERY_SERVE {
            let (rpc, actors) = scripted_fabric(how);
            let started = Instant::now();
            let gathered = rpc.call_all(targets());
            let sequential: Vec<Result<Response>> =
                targets().into_iter().map(|(node, req)| rpc.call(node, req)).collect();
            assert!(started.elapsed() < Duration::from_secs(5), "{how:?}: no timeout waited out");
            assert_eq!(
                gathered.iter().map(show).collect::<Vec<_>>(),
                sequential.iter().map(show).collect::<Vec<_>>(),
                "{how:?}: same responses, in target order"
            );
            assert!(
                matches!(gathered[0], Ok(Response::Located(ref rows)) if rows[0].1 == [NodeId::new(3)])
            );
            assert!(matches!(gathered[1], Err(Error::Shutdown)), "Response::Err lifted per slot");
            assert!(
                matches!(gathered[2], Err(Error::NodeUnavailable(n)) if n == NodeId::new(9)),
                "the unknown node fails its own slot only"
            );
            assert!(
                matches!(gathered[4], Err(Error::NodeUnavailable(n)) if n == NodeId::new(2)),
                "{how:?}: a reply dropped unanswered fails its slot"
            );
            stop(&rpc, actors);

            // Replies land in arrival order but resolve by slot: a fresh
            // fabric gathers the identical responses.
            let (rpc2, actors2) = scripted_fabric(how);
            let regathered = rpc2.call_all(targets());
            assert_eq!(
                regathered.iter().map(show).collect::<Vec<_>>(),
                gathered.iter().map(show).collect::<Vec<_>>(),
                "{how:?}"
            );
            stop(&rpc2, actors2);
        }
    }

    #[test]
    fn silent_nodes_time_out_together_not_one_after_another() {
        let (rpc, actors) = scripted_fabric(Serve::Actor);
        let timeout = Duration::from_millis(150);
        let mut gather = rpc.gather_with_timeout(timeout);
        let started = Instant::now();
        for n in 1..=3 {
            gather.send(NodeId::new(n), Request::NodeStats); // swallowed
        }
        gather.send(NodeId::new(2), Request::LocateAcgs); // answered
        let resolved: Vec<(usize, Result<Response>)> = gather.collect();
        let elapsed = started.elapsed();
        assert!(elapsed >= timeout, "the window is counted from the send: {elapsed:?}");
        assert!(elapsed < timeout * 2, "three silent nodes share ONE window: {elapsed:?}");
        assert!(matches!(resolved[0], (3, Ok(Response::Located(_)))), "live node first");
        let timed_out: Vec<usize> = resolved[1..].iter().map(|(slot, _)| *slot).collect();
        assert_eq!(timed_out, [0, 1, 2], "oldest send expires first");
        for (slot, result) in &resolved[1..] {
            assert!(
                matches!(result, Err(Error::Rpc(why)) if why.contains("timeout")),
                "slot {slot}: {result:?}"
            );
        }
        stop(&rpc, actors);
    }

    #[test]
    fn a_node_dying_with_the_request_queued_fails_the_call_at_once() {
        let rpc = Rpc::new();
        let rx = rpc.register(NodeId::new(1));
        let mut gather = rpc.gather();
        gather.send(NodeId::new(1), Request::LocateAcgs);
        drop(rx); // the actor exits without draining its mailbox
        let started = Instant::now();
        assert!(matches!(
            gather.next(),
            Some((0, Err(Error::NodeUnavailable(n)))) if n == NodeId::new(1)
        ));
        assert!(started.elapsed() < Duration::from_secs(5), "no timeout is waited out");
    }

    #[test]
    fn deregistered_node_unreachable() {
        for how in EVERY_SERVE {
            let rpc = Rpc::new();
            let h = echo_node(&rpc, NodeId::new(1), how);
            rpc.call(NodeId::new(1), Request::Shutdown).unwrap();
            if let Some(h) = h {
                h.join().unwrap();
            }
            rpc.deregister(NodeId::new(1));
            assert!(rpc.call(NodeId::new(1), Request::LocateAcgs).is_err(), "{how:?}");
        }
    }
}
