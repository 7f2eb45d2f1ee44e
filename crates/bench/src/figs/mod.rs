//! One module per reproduced table/figure of the paper's evaluation.

pub mod ablations;
pub mod fig04;
pub mod fig06;
pub mod fig07;
pub mod fig13;
pub mod fig14;
pub mod fig15;
pub mod fig16;
pub mod fig17;
pub mod fig18;
pub mod fig19;
pub mod fig20;
pub mod fig21;
pub mod fig22;
pub mod fig23;
pub mod fig24;
pub mod fig_elastic;
pub mod fig_serve;
pub mod fig_skew;
pub mod fig_tpch;
pub mod table1;

use triton_trace::json::JsonObject;

/// The paper's default workload sizes in modeled million tuples.
pub const PAPER_WORKLOADS: [u64; 3] = [128, 512, 2048];

/// The Fig 13 / Fig 1 scaling axis in modeled million tuples.
pub const SCALING_AXIS: [u64; 8] = [128, 256, 512, 640, 896, 1024, 1536, 2048];

/// A committed sweep document (`BENCH_*.json`): the `config` header
/// object, then one row object per line.
pub(crate) fn sweep_json(config: JsonObject, rows: impl IntoIterator<Item = JsonObject>) -> String {
    let body: Vec<String> = rows.into_iter().map(|r| r.render()).collect();
    format!(
        "{{\"config\":{},\"rows\":[\n{}\n]}}\n",
        config.render(),
        body.join(",\n")
    )
}

/// The keys of every row of a [`sweep_json`] document, in column order
/// (row values never contain commas or colons).
#[cfg(test)]
pub(crate) fn row_keys(json: &str) -> Vec<Vec<&str>> {
    json.lines()
        .filter(|l| l.starts_with('{') && !l.starts_with("{\"config\""))
        .map(|l| {
            l.trim_end_matches(',')
                .split(',')
                .filter_map(|field| field.split(':').next())
                .map(|k| k.trim_matches(|c| c == '{' || c == '"'))
                .collect()
        })
        .collect()
}
