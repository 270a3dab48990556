//! The election daemon's reactor driver: the front-connection machine
//! ([`crate::front`]) hands each request to the [`Desk`], the jobs the
//! desk creates go down the job channel to the workers, and their
//! results come back to the desk. A parked connection holds its
//! request's ticket, and its park deadline is the desk's `/elect`
//! deadline.

use crate::desk::{Desk, Done, Job};
use crate::front::{self, Dispatch, Front, Service, Tally};
use crate::http::Request;
use crate::metrics::SvcMetrics;
use crate::server::Shared;
use crossbeam::channel::{Receiver, Sender};
use hre_runtime::Reactor;
use std::net::TcpListener;
use std::sync::atomic::Ordering;
use std::sync::Arc;

struct EventLoop<'a> {
    shared: &'a Shared,
    desk: Desk,
    job_tx: Sender<Job>,
    done_rx: Receiver<Done>,
}

/// Runs the serving core until shutdown; returns the number of
/// connections accepted.
pub(crate) fn reactor_loop(
    reactor: Reactor,
    listener: TcpListener,
    shared: &Arc<Shared>,
    job_tx: Sender<Job>,
    done_rx: Receiver<Done>,
) -> u64 {
    let mut el = EventLoop { shared, desk: Desk::new(Arc::clone(shared)), job_tx, done_rx };
    front::serve(&mut el, reactor, listener, shared.cfg.max_body, Arc::clone(&shared.shutdown))
}

impl Service for EventLoop<'_> {
    /// The ticket of the request the desk parked.
    type Parked = u64;

    fn dispatch(&mut self, _front: &mut Front<u64>, token: u64, req: &Request) -> Dispatch<u64> {
        let job_tx = &self.job_tx;
        self.desk.dispatch(token, req, |job| job_tx.send(job).is_ok())
    }

    /// The job deadline passed before the worker replied: the desk's
    /// 504. A late reply finds no ticket.
    fn expire(&mut self, front: &mut Front<u64>, token: u64) {
        let Some(&mut ticket) = front.parked(token) else { return };
        if let Some((conn, resp)) = self.desk.expire(ticket) {
            front.answer(conn, resp);
        }
    }

    /// Results before deadlines: when a reply and its 504 timer race
    /// into the same wakeup, the reply wins.
    fn woken(&mut self, front: &mut Front<u64>) {
        while let Ok(done) = self.done_rx.try_recv() {
            if let Some((conn, resp)) = self.desk.finish(done) {
                front.answer(conn, resp);
            }
        }
    }

    fn tally(&self, what: Tally) {
        let m = &self.shared.metrics;
        match what {
            Tally::Accepted => SvcMetrics::inc(&m.connections),
            Tally::Open(delta) => {
                m.open_connections.fetch_add(delta, Ordering::Relaxed);
            }
            Tally::Wakeups(total) => m.reactor_wakeups.store(total, Ordering::Relaxed),
            Tally::Refused => SvcMetrics::inc(&m.bad_requests),
        }
    }
}
