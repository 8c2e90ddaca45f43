// Fixture: the same poller done right — the back-off is the `Wait` it
// returns. It may still spawn a thread process whose closure blocks (that
// body is not the actor's), call helpers that take a `Ctx` without
// blocking, and share a helper *name* with blocking thread code that
// never receives its `ctx`.

struct Poller {
    inbox: Addr,
    misses: u32,
}

impl Actor for Poller {
    fn on_wake(&mut self, ctx: &mut Ctx, wake: Wake) -> Wait {
        match wake {
            Wake::Start => {
                ctx.spawn_daemon("flusher", move |ctx| loop {
                    ctx.sleep(POLL);
                    flush(ctx);
                });
                Wait::RecvTimeout(self.inbox, POLL)
            }
            Wake::Timeout => {
                self.misses += 1;
                announce(ctx, self.misses);
                Wait::Sleep(POLL * self.misses)
            }
            _ => Wait::RecvTimeout(self.inbox, POLL),
        }
    }
}

fn announce(ctx: &mut Ctx, misses: u32) {
    ctx.send(STATS, Msg::new(misses), LAT);
}

fn flush(ctx: &mut Ctx) {
    ctx.annotate_wait(STORE.into_raw(), WaitKind::Call, "store", "flush");
    ctx.call(STORE, Request::Flush, LAT)
}
