// Fixture: an actor whose `on_wake` reaches a blocking primitive two
// calls away — `on_wake` -> `refresh` -> `backoff` -> `ctx.sleep`. Nothing
// on the flagged line names an actor. Expected finding: actor-blocks at
// the `ctx.sleep` in `backoff`.

struct Poller {
    inbox: Addr,
    misses: u32,
}

impl Actor for Poller {
    fn on_wake(&mut self, ctx: &mut Ctx, wake: Wake) -> Wait {
        if let Wake::Timeout = wake {
            self.refresh(ctx);
        }
        Wait::RecvTimeout(self.inbox, POLL)
    }
}

impl Poller {
    fn refresh(&mut self, ctx: &mut Ctx) {
        self.misses += 1;
        backoff(ctx, self.misses);
    }
}

fn backoff(ctx: &mut Ctx, misses: u32) {
    ctx.sleep(POLL * misses);
}
