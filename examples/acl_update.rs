//! Disambiguated updates beyond route-maps: inserting an ACL entry and a
//! prefix-list entry (the latter is the paper's §7 future work).
//!
//! ```sh
//! cargo run --example acl_update
//! ```

use clarify::core::{
    AclInsertion, AclIntentOracle, Disambiguator, PlacementStrategy, PrefixIntentOracle,
    PrefixListInsertion,
};
use clarify::llm::{Pipeline, PipelineOutcome, SemanticBackend};
use clarify::netconfig::{insert_acl_entry, insert_prefix_list_entry, Config, PrefixListEntry};

fn main() {
    // ---- ACL update ---------------------------------------------------
    let base = Config::parse(
        "ip access-list extended EDGE\n \
         deny tcp any any eq 22\n \
         permit tcp 10.0.0.0/8 any\n \
         deny udp any any range 8000 8100\n \
         permit ip any any\n",
    )
    .expect("base config parses");
    println!("--- existing ACL ---\n{}", base.acl("EDGE").expect("acl"));

    let prompt = "Write an access-list rule that permits tcp packets from host 10.9.9.9 to any.";
    println!("--- intent ---\n{prompt}\n");

    let mut pipeline = Pipeline::new(SemanticBackend::new(), 3);
    let PipelineOutcome::Acl {
        entry, llm_calls, ..
    } = pipeline.synthesize(prompt).expect("pipeline runs")
    else {
        panic!("expected an ACL outcome");
    };
    println!("--- synthesized entry ({llm_calls} LLM calls) ---\n{entry}\n");

    // The user wants the bastion host exempt from the ssh block: intent =
    // insert at the very top. The oracle plays that user.
    let intended_cfg = insert_acl_entry(&base, "EDGE", entry.clone(), 0).expect("insert");
    let intended = intended_cfg.acl("EDGE").expect("acl").clone();
    let mut oracle = AclIntentOracle {
        intended: &intended,
    };
    let result = Disambiguator::new(PlacementStrategy::BinarySearch)
        .disambiguate(
            AclInsertion::new(&base, "EDGE", &entry).expect("ACL exists"),
            &mut oracle,
        )
        .expect("disambiguation");
    println!(
        "entry overlaps {} existing rules; {} question(s) asked:",
        result.overlap_candidates, result.questions
    );
    for (q, answer) in &result.transcript {
        println!("\n{q}\n  -> user chose {answer:?}");
    }
    println!(
        "\n--- updated ACL (entry at position {}) ---\n{}",
        result.position,
        result.config.acl("EDGE").expect("acl")
    );

    // ---- prefix-list update (paper §7 future work) ---------------------
    let base = Config::parse(
        "ip prefix-list CUSTOMERS seq 5 deny 10.1.0.0/16 le 24\n\
         ip prefix-list CUSTOMERS seq 10 permit 10.0.0.0/8 le 24\n",
    )
    .expect("prefix config parses");
    println!(
        "\n--- existing prefix list ---\n{}",
        base.prefix_lists["CUSTOMERS"]
    );

    // The new entry re-opens half of the denied block.
    let entry = PrefixListEntry {
        seq: 0,
        action: clarify::netconfig::Action::Permit,
        range: "10.1.128.0/17 le 24".parse().expect("range"),
    };
    println!("new entry: permit {}\n", entry.range);
    let intended_cfg =
        insert_prefix_list_entry(&base, "CUSTOMERS", entry.clone(), 0).expect("insert");
    let intended = intended_cfg.prefix_lists["CUSTOMERS"].clone();
    let mut oracle = PrefixIntentOracle {
        intended: &intended,
    };
    let result = Disambiguator::new(PlacementStrategy::BinarySearch)
        .disambiguate(
            PrefixListInsertion::new(&base, "CUSTOMERS", &entry).expect("list exists"),
            &mut oracle,
        )
        .expect("disambiguation");
    for (q, answer) in &result.transcript {
        println!("{q}\n  -> user chose {answer:?}\n");
    }
    println!(
        "--- updated prefix list (entry at position {}) ---\n{}",
        result.position, result.config.prefix_lists["CUSTOMERS"]
    );
}
