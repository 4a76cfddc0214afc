//! Exact-cycle pins for the memory substrates' cost models and the host
//! link's tagged ledger. A refactor of `veda-mem` must leave every number
//! here unchanged: the accelerator cycle model and every serving report
//! are built from them.

use veda_mem::{HbmConfig, HostLink, HostLinkConfig, SwapDirection, TransferKind};

#[test]
fn sequential_cost_cycles_are_pinned() {
    let pins = [
        (0, 0),
        (1, 3),
        (64, 3),
        (100, 3),
        (4096, 22),
        (256 * 1024, 1362),
        (1 << 20, 5448),
        (13 << 20, 70813),
    ];
    for (bytes, cycles) in pins {
        assert_eq!(HbmConfig::default().cost(bytes), cycles, "sequential {bytes} B");
    }
}

#[test]
fn host_link_tagged_ledger_is_pinned() {
    use SwapDirection::{In, Out};
    use TransferKind::{Migration, PrefixFill, PrefixSpill, Swap};

    let mut link = HostLink::new(HostLinkConfig::default());
    let mut charged = vec![
        link.transfer_tagged(4096, Out, Swap),
        link.transfer_tagged(3000, Out, Migration),
        link.transfer_tagged(2000, Out, PrefixSpill),
        link.transfer_tagged(0, Out, Swap),
    ];
    // A degraded window: a quarter of the sustained bandwidth.
    link.set_degradation(0.25);
    assert_eq!(link.degradation(), 0.25);
    charged.push(link.transfer_tagged(4096, In, Swap));
    charged.push(link.transfer_tagged(2000, In, PrefixFill));
    charged.push(link.transfer_tagged(3000, In, Migration));
    link.set_degradation(1.0);
    assert_eq!(link.degradation(), 1.0);
    charged.push(link.transfer_tagged(1 << 20, Out, Swap));
    charged.push(link.transfer_tagged(777, In, PrefixFill));

    assert_eq!(charged, [1151, 1111, 1074, 0, 1603, 1295, 1442, 39551, 1029]);
    let bytes: Vec<u64> = [Swap, Migration, PrefixSpill, PrefixFill]
        .into_iter()
        .flat_map(|kind| [Out, In].map(|direction| link.tagged_bytes(kind, direction)))
        .collect();
    assert_eq!(bytes, [(1 << 20) + 4096, 4096, 3000, 3000, 2000, 0, 0, 2777]);
    let cycles = [Swap, Migration, PrefixSpill, PrefixFill].map(|kind| link.kind_total_cycles(kind));
    assert_eq!(cycles, [1151 + 1603 + 39551, 1111 + 1442, 1074, 1295 + 1029]);
}
