# Benchmark targets are defined from the root so that build/bench/ contains
# ONLY the benchmark executables (the standard experiment runner iterates
# over build/bench/*).

function(sb_add_bench name)
  add_executable(${name} ${CMAKE_SOURCE_DIR}/bench/${name}.cpp)
  target_link_libraries(${name} PRIVATE switchboard benchmark::benchmark)
  set_target_properties(${name} PROPERTIES
    RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
endfunction()

sb_add_bench(bench_fig7_ovs_overhead)
sb_add_bench(bench_fig8_forwarder_scaling)
sb_add_bench(bench_fig9_message_bus)
sb_add_bench(bench_fig10_route_update)
sb_add_bench(bench_fig11_e2e_comparison)
sb_add_bench(bench_fig12_te_comparison)
sb_add_bench(bench_fig13_ablation_planning)
sb_add_bench(bench_fig13_recovery)
sb_add_bench(bench_fig14_decentralization)
sb_add_bench(bench_table2_edge_addition)
sb_add_bench(bench_table3_shared_cache)
sb_add_bench(bench_ablation_dataplane)
sb_add_bench(bench_ext_dynamics)
sb_add_bench(bench_ext_scale)
target_link_libraries(bench_ext_scale PRIVATE sb_lp_reference)
target_link_libraries(bench_fig8_forwarder_scaling PRIVATE sb_dataplane_reference)
target_link_libraries(bench_fig12_te_comparison PRIVATE sb_te_reference)
