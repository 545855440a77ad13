//! Trip recommendation scenario: the paper's motivating application.
//!
//! A tourist supplies the places they intend to visit and keywords
//! describing the kind of trip they want. This example runs the same query
//! under several preference parameters λ and shows how the recommendation
//! shifts between "spatially closest trip" and "textually best-matching
//! trip" — the trade-off the UOTS linear combination controls.
//!
//! ```text
//! cargo run --release --example trip_recommendation
//! ```

use uots::prelude::*;

fn main() {
    let ds = Dataset::build(&DatasetConfig::small(400, 2026)).expect("dataset builds");
    let db = uots::db(&ds);
    println!("dataset: {}\n{}\n", ds.name, ds.stats());

    // Intended places: three vertices in the city centre.
    let center = ds.network.bbox().center();
    let places = vec![
        ds.snap(&Point::new(center.x - 1.0, center.y)),
        ds.snap(&Point::new(center.x + 1.0, center.y + 0.5)),
        ds.snap(&Point::new(center.x, center.y - 1.0)),
    ];
    // Preference: the three most popular tags of category 0.
    let keywords = {
        let mut rng: rand::rngs::StdRng = rand::SeedableRng::seed_from_u64(5);
        ds.tags.sample_tags(0, 3, &mut rng)
    };
    println!(
        "intended places: {places:?}\npreference: {:?}\n",
        keywords
            .iter()
            .map(|k| ds.vocab.word(k).unwrap_or("?").to_string())
            .collect::<Vec<_>>()
    );

    println!(
        "{:<6} {:>10} {:>9} {:>9} {:>9}  tags of the winner",
        "λ", "winner", "sim", "spatial", "textual"
    );
    for lambda in [0.0, 0.25, 0.5, 0.75, 1.0] {
        let query = UotsQuery::with_options(
            places.clone(),
            keywords.clone(),
            vec![],
            QueryOptions {
                weights: Weights::lambda(lambda).expect("valid lambda"),
                k: 1,
                ..Default::default()
            },
        )
        .expect("valid query");
        let result = Expansion::default().run(&db, &query).expect("query runs");
        let best = result.best().expect("non-empty dataset");
        let tags: Vec<String> = ds
            .store
            .get(best.id)
            .keywords()
            .iter()
            .map(|k| ds.vocab.word(k).unwrap_or("?").to_string())
            .collect();
        println!(
            "{lambda:<6} {:>10} {:>9.4} {:>9.4} {:>9.4}  {tags:?}",
            best.id.to_string(),
            best.similarity,
            best.spatial,
            best.textual
        );
    }

    // The five best trips at the default weights.
    let query = UotsQuery::with_options(
        places,
        keywords,
        vec![],
        QueryOptions {
            k: 5,
            ..Default::default()
        },
    )
    .expect("valid query");
    let result = Expansion::default().run(&db, &query).expect("query runs");
    println!("\ntop-5: {:?}", result.ids());
}
