# Drift check between the wait-free sources and the committed protocol
# artifacts the certifier derives from them:
#   * tools/protocol_ir.json — the per-function protocol IR export;
#   * tests/generated_model_schedules.h — the model-check schedule seeds
#     generated from that IR.
# Run as a ctest (flipc_protocol_ir_drift); regenerate both with:
#
#   python3 tools/flipc_static_audit/flipc_static_audit.py \
#     --policy tools/ownership_policy.json --source-root . \
#     --emit-ir tools/protocol_ir.json \
#     --emit-schedules tests/generated_model_schedules.h
#
# Inputs: PYTHON, AUDIT_TOOL, POLICY, SOURCE_ROOT, COMMITTED_IR, FRESH_IR,
#         COMMITTED_SCHEDULES, FRESH_SCHEDULES.
execute_process(COMMAND ${PYTHON} ${AUDIT_TOOL}
                        --policy ${POLICY}
                        --source-root ${SOURCE_ROOT}
                        --emit-ir ${FRESH_IR}
                        --emit-schedules ${FRESH_SCHEDULES}
                RESULT_VARIABLE _rc)
if(NOT _rc EQUAL 0)
  message(FATAL_ERROR "flipc_static_audit failed (rc=${_rc}) while "
                      "re-deriving the protocol IR: fix the audit findings "
                      "(or a schedule_gen entry-point mismatch) first")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                        ${COMMITTED_IR} ${FRESH_IR}
                RESULT_VARIABLE _rc)
if(NOT _rc EQUAL 0)
  message(FATAL_ERROR "tools/protocol_ir.json drifted from the wait-free "
                      "sources; the protocol changed — review the diff, then "
                      "regenerate with flipc_static_audit --emit-ir "
                      "(fresh copy at ${FRESH_IR})")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                        ${COMMITTED_SCHEDULES} ${FRESH_SCHEDULES}
                RESULT_VARIABLE _rc)
if(NOT _rc EQUAL 0)
  message(FATAL_ERROR "tests/generated_model_schedules.h drifted from the "
                      "protocol IR; regenerate with flipc_static_audit "
                      "--emit-schedules (fresh copy at ${FRESH_SCHEDULES})")
endif()
