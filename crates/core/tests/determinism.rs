//! Determinism contract of the data-parallel executor: thread count must
//! not change a single bit of the trained parameters, and shard-gradient
//! merging must reproduce the single-shard gradient. Neither may the
//! buffer pool: recycled storage must be indistinguishable from fresh.

use autograd::{GradientSet, Graph, Parameter};
use meta_sgcl::{MetaSgcl, MetaSgclConfig, TrainStrategy};
use models::{NetConfig, SequentialRecommender, TrainConfig};
use recdata::ItemId;
use tensor::{pool, Tensor};

fn ring(users: usize, items: usize, len: usize) -> Vec<Vec<ItemId>> {
    (0..users)
        .map(|u| (0..len).map(|t| 1 + (u + t) % items).collect())
        .collect()
}

fn small_cfg(items: usize, strategy: TrainStrategy) -> MetaSgclConfig {
    MetaSgclConfig {
        net: NetConfig {
            max_len: 8,
            dim: 16,
            layers: 1,
            ..NetConfig::for_items(items)
        },
        alpha: 0.02,
        beta: 0.05,
        strategy,
        ..MetaSgclConfig::for_items(items)
    }
}

/// Trains two epochs with the given thread count and returns every
/// parameter value.
fn train_params(strategy: TrainStrategy, threads: usize) -> Vec<Tensor> {
    let train = ring(20, 6, 8);
    let mut m = MetaSgcl::new(small_cfg(6, strategy));
    let tc = TrainConfig {
        epochs: 2,
        batch_size: 10,
        shard_size: 4, // forces several shards per batch (10 -> 4+4+2)
        threads,
        ..Default::default()
    };
    m.fit(&train, &tc);
    m.all_parameters()
        .iter()
        .map(|p| p.borrow().value.clone())
        .collect()
}

#[test]
fn threads_do_not_change_trained_parameters_meta() {
    let serial = train_params(TrainStrategy::MetaTwoStep, 1);
    let parallel = train_params(TrainStrategy::MetaTwoStep, 4);
    assert_eq!(serial.len(), parallel.len());
    for (i, (a, b)) in serial.iter().zip(parallel.iter()).enumerate() {
        assert_eq!(
            a, b,
            "parameter {i} differs between threads=1 and threads=4"
        );
    }
}

#[test]
fn threads_do_not_change_trained_parameters_joint() {
    let serial = train_params(TrainStrategy::Joint, 1);
    let parallel = train_params(TrainStrategy::Joint, 4);
    for (i, (a, b)) in serial.iter().zip(parallel.iter()).enumerate() {
        assert_eq!(
            a, b,
            "parameter {i} differs between threads=1 and threads=4"
        );
    }
}

#[test]
fn buffer_pool_does_not_change_checkpoints() {
    // Every checkpoint file of a short two-step run, by name, in order.
    let checkpoint_bytes = |tag: &str| -> Vec<(String, Vec<u8>)> {
        let dir = std::env::temp_dir().join("msgc_determinism_test").join(tag);
        let _ = std::fs::remove_dir_all(&dir);
        let train = ring(20, 6, 8);
        let mut m = MetaSgcl::new(small_cfg(6, TrainStrategy::MetaTwoStep));
        let tc = TrainConfig {
            epochs: 2,
            batch_size: 10,
            shard_size: 4,
            threads: 2,
            save_every: 1,
            keep_last: 0,
            ckpt_dir: Some(dir.to_string_lossy().into_owned()),
            ..Default::default()
        };
        m.train_model(&train, &tc).expect("training failed");
        let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(&dir)
            .expect("checkpoint dir")
            .map(|e| {
                let path = e.expect("dir entry").path();
                let name = path.file_name().expect("file name");
                let name = name.to_string_lossy().into_owned();
                (name, std::fs::read(&path).expect("read checkpoint"))
            })
            .collect();
        files.sort();
        let _ = std::fs::remove_dir_all(&dir);
        files
    };
    pool::set_enabled(true);
    let pooled = checkpoint_bytes("pool-on");
    pool::set_enabled(false);
    let plain = checkpoint_bytes("pool-off");
    pool::set_enabled(true);
    assert_eq!(pooled.len(), 4, "one checkpoint per optimizer step");
    assert_eq!(pooled.len(), plain.len());
    for ((name, a), (other, b)) in pooled.iter().zip(&plain) {
        assert_eq!(name, other);
        assert!(a == b, "{name} differs with the pool on and off");
    }
}

/// Merging per-shard gradient sets with weights `shard_len / batch_len`
/// must equal the gradient of the whole batch computed in one shard, when
/// the per-row losses are independent (no cross-row coupling).
#[test]
fn shard_merge_equals_single_shard_gradient() {
    // loss(shard) = mean over rows of w · x_row, so the batch gradient is
    // the size-weighted mean of shard gradients — exactly what
    // merge_scaled computes.
    let w = Parameter::shared("w", Tensor::from_vec(vec![0.5, -1.0, 2.0], vec![3, 1]));
    let rows: Vec<Tensor> = (0..6)
        .map(|r| Tensor::from_vec(vec![r as f32, 1.0 + r as f32, 2.0 - r as f32], vec![1, 3]))
        .collect();

    let shard_grad = |rows: &[Tensor]| {
        let g = Graph::new();
        let wv = g.param(&w);
        let mut loss: Option<autograd::Var> = None;
        for row in rows {
            let term = g.constant(row.clone()).matmul(&wv).sum_all();
            loss = Some(match loss {
                None => term,
                Some(acc) => acc.add(&term),
            });
        }
        let loss = loss.unwrap().scale(1.0 / rows.len() as f32);
        loss.backward_collect()
    };

    let whole = shard_grad(&rows);

    let mut merged = GradientSet::new();
    for (shard, len) in [(&rows[0..4], 4.0f32), (&rows[4..6], 2.0f32)] {
        merged.merge_scaled(&shard_grad(shard), len / 6.0);
    }

    let a = whole.get(&w).expect("whole-batch grad");
    let b = merged.get(&w).expect("merged grad");
    for (x, y) in a.data().iter().zip(b.data().iter()) {
        assert!((x - y).abs() < 1e-5, "merged {y} != single-shard {x}");
    }
}

/// `backward_collect` must leave the shared gradient buffers untouched so
/// concurrent shard backward passes cannot race on them.
#[test]
fn backward_collect_does_not_touch_shared_state() {
    let p = Parameter::shared("p", Tensor::from_vec(vec![1.0, 2.0], vec![2]));
    let g = Graph::new();
    let loss = g.param(&p).sum_all();
    let set = g.backward_collect(&loss);
    assert_eq!(p.borrow().grad.data(), &[0.0, 0.0]);
    set.apply();
    assert_eq!(p.borrow().grad.data(), &[1.0, 1.0]);
}
