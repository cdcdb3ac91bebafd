//! Shared test utilities: the in-repo property harness ([`prop`]).
//! Every random-program property draws its input from the workload
//! fuzzer's grammar by passing `encore::workloads::fuzz::gen_program`
//! to [`prop::check`] as its generator; materialize the program with
//! `fuzz::build`. The differential suites run it at its own `arg`; the
//! other properties pass fixed arguments and ignore `arg`.

pub mod prop;
